"""Recursive-descent parser for the SPARQL / C-SPARQL subset.

Grammar (keywords case-insensitive)::

    query      := prefix* register? (ASK | SELECT [DISTINCT] projection)
                  from* WHERE group groupby? (LIMIT n)? (OFFSET n)?
    prefix     := PREFIX name ':' iri
    register   := REGISTER QUERY name AS
    projection := '*' | item+
    item       := var | FUNC '(' (var | '*') ')' AS var
    from       := FROM SNAPSHOT n | FROM [NAMED] source window?
    window     := '[' RANGE duration STEP duration ']'
    duration   := integer ('ms' | 's' | 'm')
    group      := '{' clause* '}'
    clause     := GRAPH source group | FILTER filterbody | triple
    filterbody := '(' term op term ')'
                | '(' interval IOP interval ')'
    triple     := term term term interval? '.'?
    interval   := '[' endpoint ',' endpoint ')'
    groupby    := GROUP BY var+

``GRAPH`` clauses bind their patterns to the named stream or static graph;
bare patterns target the default stored graph.  A window-less ``FROM``
names a static graph; a ``FROM`` with a window declares a stream.
Aggregates (COUNT/SUM/AVG/MIN/MAX) implement C-SPARQL's online
aggregation over streams and stored data.

SPARQL-T (temporal) extensions, after wukong-cube's tRDF dialect:
``FROM SNAPSHOT <n>`` scopes a one-shot query to snapshot number ``n``
of the versioned store; a quintuple pattern ``?s ?p ?o [?ts, ?te)``
additionally binds each matched entry's valid-time interval (insertion
snapshot and open retirement end) to interval variables; interval
FILTERs (``FILTER ([?ts, ?te) OVERLAPS [3, 7))``, ops listed in
:data:`~repro.sparql.ast.INTERVAL_OPS`) constrain those intervals, with
``*`` as the open upper endpoint.  Interval endpoint variables also work
in ordinary comparison FILTERs (``FILTER (?ts >= 3)``).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import InvalidIntervalError, ParseError
from repro.sparql.ast import (AGGREGATE_FUNCS, Aggregate, FILTER_OPS,
                              FilterExpr, INTERVAL_OPS, IntervalFilter,
                              OPEN_END, Query, TriplePattern, WindowSpec,
                              is_variable)
from repro.sparql.lexer import Token, TokenCursor, tokenize

_DURATION_RE = re.compile(r"^(\d+)(ms|s|m)$", re.IGNORECASE)
_UNIT_MS = {"ms": 1, "s": 1_000, "m": 60_000}


def _parse_duration(token: Token) -> int:
    """Parse ``10s`` / ``100ms`` / ``2m`` into milliseconds."""
    match = _DURATION_RE.match(token.text)
    if not match:
        raise ParseError(f"bad duration: {token.text!r}",
                         line=token.line, column=token.column)
    return int(match.group(1)) * _UNIT_MS[match.group(2).lower()]


def _parse_count(cursor: TokenCursor, keyword: str) -> int:
    token = cursor.next()
    try:
        value = int(token.text)
    except ValueError:
        raise ParseError(f"{keyword} needs an integer, got {token.text!r}",
                         line=token.line, column=token.column) from None
    if value < 0:
        raise ParseError(f"{keyword} must be non-negative: {value}",
                         line=token.line, column=token.column)
    return value


def _parse_aggregate(cursor: TokenCursor) -> Aggregate:
    """Parse ``FUNC ( ?var | * ) AS ?alias``."""
    func = cursor.next().upper
    cursor.expect("(")
    arg_token = cursor.next()
    if arg_token.text == "*":
        if func != "COUNT":
            raise ParseError(f"{func}(*) is not valid; only COUNT(*)",
                             line=arg_token.line, column=arg_token.column)
        var = None
    elif is_variable(arg_token.text):
        var = arg_token.text
    else:
        raise ParseError(
            f"aggregate argument must be a variable or '*', got "
            f"{arg_token.text!r}", line=arg_token.line,
            column=arg_token.column)
    cursor.expect(")")
    cursor.expect("AS")
    alias_token = cursor.next()
    if not is_variable(alias_token.text):
        raise ParseError(f"aggregate alias must be a variable, got "
                         f"{alias_token.text!r}", line=alias_token.line,
                         column=alias_token.column)
    return Aggregate(func, var, alias_token.text)


def _parse_window(cursor: TokenCursor) -> WindowSpec:
    cursor.expect("[")
    cursor.expect("RANGE")
    range_ms = _parse_duration(cursor.next())
    cursor.expect("STEP")
    step_ms = _parse_duration(cursor.next())
    cursor.expect("]")
    return WindowSpec(range_ms=range_ms, step_ms=step_ms)


def _parse_quintuple_suffix(cursor: TokenCursor) -> Tuple[str, str]:
    """Parse a pattern's valid-time suffix ``[?ts, ?te)``.

    Pattern endpoints must be (distinct) variables: the suffix *binds*
    each matched entry's interval; constants go in interval FILTERs.
    """
    opener = cursor.expect("[")
    ts_token = cursor.next()
    cursor.expect(",")
    te_token = cursor.next()
    cursor.expect(")")
    for token in (ts_token, te_token):
        if not is_variable(token.text):
            raise InvalidIntervalError(
                f"quintuple interval endpoints must be variables, got "
                f"{token.text!r} (line {token.line}, column {token.column})")
    if ts_token.text == te_token.text:
        raise InvalidIntervalError(
            f"quintuple interval endpoints must be distinct variables, "
            f"got [{ts_token.text}, {te_token.text}) (line {opener.line}, "
            f"column {opener.column})")
    return ts_token.text, te_token.text


def _parse_triple(cursor: TokenCursor, graph: Optional[str],
                  out: List[TriplePattern]) -> None:
    terms = [cursor.next().text for _ in range(3)]
    ts: Optional[str] = None
    te: Optional[str] = None
    upcoming = cursor.peek()
    if upcoming is not None and upcoming.text == "[":
        ts, te = _parse_quintuple_suffix(cursor)
    cursor.accept(".")
    out.append(TriplePattern(terms[0], terms[1], terms[2], graph=graph,
                             ts=ts, te=te))


def _parse_union(cursor: TokenCursor, graph: Optional[str],
                 filters: List[FilterExpr],
                 unions: List[List[List[TriplePattern]]],
                 opener,
                 interval_filters: List[IntervalFilter]) -> None:
    """Parse ``{ branch } UNION { branch } [UNION ...]``."""
    branches: List[List[TriplePattern]] = []
    while True:
        branch: List[TriplePattern] = []
        _parse_group(cursor, graph, branch, filters, None, None,
                     interval_filters)
        if not branch:
            raise ParseError("empty UNION branch", line=opener.line,
                             column=opener.column)
        branches.append(branch)
        if not cursor.accept("UNION"):
            break
    cursor.accept(".")
    if len(branches) < 2:
        raise ParseError("a braced group must alternate with UNION",
                         line=opener.line, column=opener.column)
    first_vars = {v for p in branches[0] for v in p.variables()}
    for branch in branches[1:]:
        branch_vars = {v for p in branch for v in p.variables()}
        if branch_vars != first_vars:
            raise ParseError(
                "UNION branches must bind the same variables: "
                f"{sorted(first_vars)} vs {sorted(branch_vars)}",
                line=opener.line, column=opener.column)
    unions.append(branches)


def _parse_interval_endpoint(cursor: TokenCursor) -> str:
    """One interval-FILTER endpoint: a variable, a non-negative integer
    snapshot number, or ``*`` (normalized to :data:`OPEN_END`)."""
    token = cursor.next()
    text = token.text
    if text == "*":
        return str(OPEN_END)
    if is_variable(text):
        return text
    try:
        value = int(text)
    except ValueError:
        raise InvalidIntervalError(
            f"interval endpoint must be a variable, a non-negative "
            f"integer or '*', got {text!r} (line {token.line}, column "
            f"{token.column})") from None
    if value < 0:
        raise InvalidIntervalError(
            f"interval endpoint must be non-negative: {value} (line "
            f"{token.line}, column {token.column})")
    return text


def _parse_filter_interval(cursor: TokenCursor) -> Tuple[str, str]:
    cursor.expect("[")
    ts = _parse_interval_endpoint(cursor)
    cursor.expect(",")
    te = _parse_interval_endpoint(cursor)
    cursor.expect(")")
    return ts, te


def _parse_filter(cursor: TokenCursor, filters: List[FilterExpr],
                  interval_filters: List[IntervalFilter]) -> None:
    cursor.expect("(")
    upcoming = cursor.peek()
    if upcoming is not None and upcoming.text == "[":
        left_ts, left_te = _parse_filter_interval(cursor)
        op_token = cursor.next()
        if op_token.upper not in INTERVAL_OPS:
            raise ParseError(
                f"bad interval operator: {op_token.text!r}",
                line=op_token.line, column=op_token.column)
        right_ts, right_te = _parse_filter_interval(cursor)
        cursor.expect(")")
        cursor.accept(".")
        interval_filters.append(IntervalFilter(
            left_ts, left_te, op_token.upper, right_ts, right_te))
        return
    left = cursor.next().text
    op_token = cursor.next()
    if op_token.text not in FILTER_OPS:
        raise ParseError(f"bad filter operator: {op_token.text!r}",
                         line=op_token.line, column=op_token.column)
    right = cursor.next().text
    cursor.expect(")")
    cursor.accept(".")
    filters.append(FilterExpr(left, op_token.text, right))


def _parse_group(cursor: TokenCursor, graph: Optional[str],
                 out: List[TriplePattern],
                 filters: List[FilterExpr],
                 optionals: Optional[List[List[TriplePattern]]] = None,
                 unions: Optional[List[List[List[TriplePattern]]]] = None,
                 interval_filters: Optional[List[IntervalFilter]] = None
                 ) -> None:
    if interval_filters is None:
        interval_filters = []
    cursor.expect("{")
    while not cursor.accept("}"):
        token = cursor.peek()
        if token is None:
            raise ParseError("unterminated group: missing '}'")
        if token.text == "{":
            if unions is None:
                raise ParseError("nested alternation groups are "
                                 "unsupported here",
                                 line=token.line, column=token.column)
            _parse_union(cursor, graph, filters, unions, token,
                         interval_filters)
        elif token.upper == "GRAPH":
            cursor.next()
            source = cursor.next().text
            _parse_group(cursor, source, out, filters, optionals, unions,
                         interval_filters)
            cursor.accept(".")
        elif token.upper == "FILTER":
            cursor.next()
            _parse_filter(cursor, filters, interval_filters)
        elif token.upper == "OPTIONAL":
            if optionals is None:
                raise ParseError(
                    "OPTIONAL cannot be nested inside OPTIONAL",
                    line=token.line, column=token.column)
            cursor.next()
            group: List[TriplePattern] = []
            _parse_group(cursor, graph, group, filters, None,
                         interval_filters=interval_filters)
            cursor.accept(".")
            if not group:
                raise ParseError("empty OPTIONAL group",
                                 line=token.line, column=token.column)
            optionals.append(group)
        else:
            _parse_triple(cursor, graph, out)


def parse_query(text: str) -> Query:
    """Parse one SPARQL or C-SPARQL query.

    >>> q = parse_query('''
    ...     REGISTER QUERY QC AS
    ...     SELECT ?X ?Y ?Z
    ...     FROM Tweet_Stream [RANGE 10s STEP 1s]
    ...     FROM Like_Stream [RANGE 5s STEP 1s]
    ...     FROM X-Lab
    ...     WHERE {
    ...       GRAPH Tweet_Stream { ?X po ?Z }
    ...       GRAPH X-Lab { ?X fo ?Y }
    ...       GRAPH Like_Stream { ?Y li ?Z }
    ...     }''')
    >>> q.name, q.is_continuous, sorted(q.windows)
    ('QC', True, ['Like_Stream', 'Tweet_Stream'])
    """
    cursor = TokenCursor(tokenize(text))
    query = Query(text=text)

    prefixes: dict = {}
    while cursor.accept("PREFIX"):
        name_token = cursor.next()
        prefix = name_token.text
        if prefix.endswith(":"):
            prefix = prefix[:-1]
        else:
            cursor.accept(":")
        iri_token = cursor.next()
        prefixes[prefix] = iri_token.text

    if cursor.accept("REGISTER"):
        cursor.expect("QUERY")
        query.name = cursor.next().text
        cursor.accept("AS")

    if cursor.accept("ASK"):
        query.is_ask = True
    else:
        cursor.expect("SELECT")
        cursor.accept("DISTINCT")  # results are sets already
        if cursor.accept("*"):
            pass
        else:
            while True:
                token = cursor.peek()
                if token is None:
                    raise ParseError("query ends after SELECT")
                if is_variable(token.text):
                    query.select.append(cursor.next().text)
                elif token.upper in AGGREGATE_FUNCS:
                    query.aggregates.append(_parse_aggregate(cursor))
                else:
                    break
            if not query.select and not query.aggregates:
                raise ParseError(
                    "SELECT needs '*', variables or aggregates",
                    line=token.line, column=token.column)

    while cursor.accept("FROM"):
        if cursor.accept("SNAPSHOT"):
            token = cursor.next()
            try:
                snapshot = int(token.text)
            except ValueError:
                raise ParseError(
                    f"FROM SNAPSHOT needs an integer snapshot number, "
                    f"got {token.text!r}", line=token.line,
                    column=token.column) from None
            if snapshot < 0:
                raise InvalidIntervalError(
                    f"snapshot number must be non-negative: {snapshot}",
                    snapshot=snapshot)
            if query.snapshot is not None:
                raise ParseError("FROM SNAPSHOT declared twice",
                                 line=token.line, column=token.column)
            query.snapshot = snapshot
            continue
        cursor.accept("NAMED")
        source = cursor.next().text
        upcoming = cursor.peek()
        if upcoming is not None and upcoming.text == "[":
            window = _parse_window(cursor)
            if source in query.windows:
                raise ParseError(f"stream declared twice: {source}")
            query.windows[source] = window
        else:
            if source in query.static_graphs:
                raise ParseError(f"graph declared twice: {source}")
            query.static_graphs.append(source)

    cursor.expect("WHERE")
    _parse_group(cursor, None, query.patterns, query.filters,
                 query.optionals, query.unions, query.interval_filters)

    if cursor.accept("GROUP"):
        cursor.expect("BY")
        while True:
            token = cursor.peek()
            if token is None or not is_variable(token.text):
                break
            query.group_by.append(cursor.next().text)
        if not query.group_by:
            raise ParseError("GROUP BY needs at least one variable")

    if cursor.accept("LIMIT"):
        query.limit = _parse_count(cursor, "LIMIT")
    if cursor.accept("OFFSET"):
        query.offset = _parse_count(cursor, "OFFSET")

    if not cursor.exhausted:
        stray = cursor.next()
        raise ParseError(f"unexpected trailing token {stray.text!r}",
                         line=stray.line, column=stray.column)
    if not query.patterns and not query.unions:
        raise ParseError("WHERE block has no triple patterns")

    if prefixes:
        _expand_prefixes(query, prefixes)
    _validate(query)
    return query


def _expand_term(term: str, prefixes: dict) -> str:
    """Expand ``ex:Logan`` to the prefix's IRI + local part."""
    if is_variable(term) or ":" not in term:
        return term
    prefix, _, local = term.partition(":")
    base = prefixes.get(prefix)
    return base + local if base is not None else term


def _expand_prefixes(query: Query, prefixes: dict) -> None:
    def expand_group(group):
        return [TriplePattern(_expand_term(p.subject, prefixes),
                              _expand_term(p.predicate, prefixes),
                              _expand_term(p.object, prefixes),
                              graph=_expand_term(p.graph, prefixes)
                              if p.graph else None,
                              ts=p.ts, te=p.te)
                for p in group]

    query.patterns[:] = expand_group(query.patterns)

    query.optionals[:] = [expand_group(g) for g in query.optionals]
    query.unions[:] = [[expand_group(b) for b in union]
                       for union in query.unions]
    query.filters[:] = [
        FilterExpr(_expand_term(f.left, prefixes), f.op,
                   _expand_term(f.right, prefixes))
        for f in query.filters
    ]
    query.static_graphs[:] = [_expand_term(g, prefixes)
                              for g in query.static_graphs]
    for stream in list(query.windows):
        expanded = _expand_term(stream, prefixes)
        if expanded != stream:
            query.windows[expanded] = query.windows.pop(stream)


def _validate(query: Query) -> None:
    """Cross-checks between clauses."""
    known_sources = set(query.windows) | set(query.static_graphs)
    all_patterns = list(query.patterns) + \
        [p for group in query.optionals for p in group] + \
        [p for union in query.unions for branch in union for p in branch]
    for pattern in all_patterns:
        if pattern.graph is not None and known_sources and \
                pattern.graph not in known_sources:
            raise ParseError(
                f"GRAPH {pattern.graph} is not declared by any FROM clause")
    declared = set(query.select)
    available = set(query.variables())
    missing = declared - available
    if missing:
        raise ParseError(
            f"SELECT variables never bound by WHERE: {sorted(missing)}")

    for expr in query.filters:
        unbound = set(expr.variables()) - available
        if unbound:
            raise ParseError(
                f"FILTER variables never bound by WHERE: {sorted(unbound)}")

    _validate_temporal(query, available)

    if query.aggregates:
        for agg in query.aggregates:
            if agg.var is not None and agg.var not in available:
                raise ParseError(
                    f"aggregate over a variable WHERE never binds: "
                    f"{agg.var}")
            if agg.alias in available:
                raise ParseError(
                    f"aggregate alias collides with a pattern variable: "
                    f"{agg.alias}")
        stray_groups = set(query.group_by) - available
        if stray_groups:
            raise ParseError(
                f"GROUP BY variables never bound by WHERE: "
                f"{sorted(stray_groups)}")
        bare = declared - set(query.group_by)
        if bare:
            raise ParseError(
                f"non-aggregated SELECT variables must appear in GROUP "
                f"BY: {sorted(bare)}")
    elif query.group_by:
        raise ParseError("GROUP BY requires at least one aggregate")


def _validate_temporal(query: Query, available: set) -> None:
    """SPARQL-T cross-checks (no-ops on non-temporal queries).

    Interval patterns and FILTERs compose with OPTIONAL and UNION (one
    execution path runs them all), within two limits stated in the
    refusals below.
    """
    groups = query.optionals + [branch for union in query.unions
                                for branch in union]
    if any(pattern.has_interval for group in groups for pattern in group):
        raise ParseError(
            "quintuple patterns are not supported inside OPTIONAL or "
            "UNION: an endpoint bound there could be unbound in a row an "
            "interval FILTER reads")
    if not query.is_temporal:
        return

    if query.is_continuous:
        raise ParseError(
            "temporal scopes (FROM SNAPSHOT, quintuple patterns, interval "
            "FILTERs) apply to one-shot queries only, not to queries over "
            f"stream windows: {sorted(query.windows)}")

    if query.aggregates and query.has_intervals:
        raise ParseError(
            "interval patterns/FILTERs cannot combine with aggregates: "
            "aggregates read bindings as entity names, and ?ts / ?te are "
            "snapshot numbers")

    graph_vars = set()
    for pattern in query.patterns:
        graph_vars.update(pattern.variables())
    collisions = graph_vars & set(query.interval_variables())
    if collisions:
        raise ParseError(
            f"interval endpoint variables collide with graph variables: "
            f"{sorted(collisions)}")

    for ifilter in query.interval_filters:
        unbound = set(ifilter.variables()) - available
        if unbound:
            raise ParseError(
                f"FILTER variables never bound by WHERE: {sorted(unbound)}")
        for ts, te in ((ifilter.left_ts, ifilter.left_te),
                       (ifilter.right_ts, ifilter.right_te)):
            if is_variable(ts) or is_variable(te):
                continue
            try:
                ts_value, te_value = int(ts), int(te)
            except ValueError:
                raise InvalidIntervalError(
                    f"non-integer constant interval endpoint in "
                    f"[{ts}, {te})") from None
            if te_value <= ts_value:
                raise InvalidIntervalError(
                    f"empty or inverted interval [{ts}, {te})")
