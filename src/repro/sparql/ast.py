"""Abstract syntax for the supported SPARQL / C-SPARQL subset.

The subset covers everything the paper's workloads need (Fig. 2):

* ``SELECT`` with an explicit variable list or ``*``;
* ``FROM <graph>`` for static graphs and ``FROM <stream> [RANGE r STEP s]``
  for stream windows;
* ``WHERE`` blocks of triple patterns, optionally scoped by
  ``GRAPH <source> { ... }`` clauses binding patterns to a specific stream
  or static graph;
* ``REGISTER QUERY <name> AS`` prefixes marking continuous queries.

Variables are ``?``-prefixed tokens; anything else is a constant term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def is_variable(term: str) -> bool:
    """Whether a pattern term is a SPARQL variable (``?``-prefixed)."""
    return term.startswith("?")


#: Comparison operators supported in FILTER expressions.
FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Aggregate functions supported in SELECT (C-SPARQL online aggregation).
AGGREGATE_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Interval predicates supported in SPARQL-T interval FILTERs, over
#: half-open valid-time intervals ``[ts, te)`` in snapshot-number space:
#:
#: ``OVERLAPS``  the intervals share at least one snapshot;
#: ``DURING``    the left interval is contained in the right;
#: ``BEFORE``    the left interval ends at or before the right starts;
#: ``AFTER``     the left interval starts at or after the right ends;
#: ``STARTS``    the two intervals start at the same snapshot.
INTERVAL_OPS = ("OVERLAPS", "DURING", "BEFORE", "AFTER", "STARTS")

#: Sentinel upper endpoint of a still-open valid-time interval.  The
#: store is append-only, so a quintuple pattern binds its ``?te``
#: variable to this value for every live entry; query text writes an
#: open upper endpoint as ``*`` (e.g. ``FILTER ([?ts, ?te) DURING
#: [3, *))``).
OPEN_END = 1 << 62


@dataclass(frozen=True)
class FilterExpr:
    """One ``FILTER (left op right)`` condition.

    Either side may be a variable or a constant; equality works on any
    term, ordering comparisons require numeric values (integer literals or
    entity names that parse as integers, e.g. CityBench's ``Spots95`` is
    *not* numeric but ``95`` is).
    """

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise ValueError(f"unsupported filter operator: {self.op}")

    def variables(self) -> Tuple[str, ...]:
        return tuple(t for t in (self.left, self.right) if is_variable(t))

    def __str__(self) -> str:
        return f"FILTER ({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class IntervalFilter:
    """One SPARQL-T interval condition: ``FILTER ([ts, te) OP [ts, te))``.

    Each side is a half-open interval whose endpoints are variables
    (bound by a quintuple pattern's ``[?ts, ?te)`` suffix), non-negative
    integer snapshot numbers, or ``*`` (parsed to :data:`OPEN_END`) for a
    still-open upper endpoint.
    """

    left_ts: str
    left_te: str
    op: str
    right_ts: str
    right_te: str

    def __post_init__(self) -> None:
        if self.op not in INTERVAL_OPS:
            raise ValueError(f"unsupported interval operator: {self.op}")

    def variables(self) -> Tuple[str, ...]:
        return tuple(t for t in (self.left_ts, self.left_te,
                                 self.right_ts, self.right_te)
                     if is_variable(t))

    def __str__(self) -> str:
        return (f"FILTER ([{self.left_ts}, {self.left_te}) {self.op} "
                f"[{self.right_ts}, {self.right_te}))")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate projection: ``FUNC(?var) AS ?alias``.

    ``var`` is None for ``COUNT(*)``.
    """

    func: str
    var: Optional[str]
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unsupported aggregate: {self.func}")
        if self.func != "COUNT" and self.var is None:
            raise ValueError(f"{self.func} requires a variable argument")

    def __str__(self) -> str:
        inner = self.var if self.var is not None else "*"
        return f"{self.func}({inner}) AS {self.alias}"


@dataclass(frozen=True)
class TriplePattern:
    """One ``subject predicate object`` pattern.

    ``graph`` names the source the pattern must match against: a stream
    name, a static graph name, or ``None`` meaning the default (stored)
    graph.  Patterns from ``GRAPH X { ... }`` clauses carry ``graph=X``.
    """

    subject: str
    predicate: str
    object: str
    graph: Optional[str] = None
    #: SPARQL-T valid-time endpoints from a quintuple suffix
    #: ``?s ?p ?o [?ts, ?te)``: variables binding each matched entry's
    #: insertion snapshot and (open) retirement snapshot.  ``None`` on
    #: ordinary (timeless) triple patterns.
    ts: Optional[str] = None
    te: Optional[str] = None

    @property
    def has_interval(self) -> bool:
        """Whether this pattern carries a valid-time interval suffix."""
        return self.ts is not None

    def variables(self) -> Tuple[str, ...]:
        """The distinct *graph* variables of this pattern, in s/p/o order.

        Interval endpoint variables are deliberately excluded: they bind
        snapshot numbers, not vertices, so they are never joinable graph
        bindings (see :meth:`interval_variables`).
        """
        seen: List[str] = []
        for term in (self.subject, self.predicate, self.object):
            if is_variable(term) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def interval_variables(self) -> Tuple[str, ...]:
        """The interval endpoint variables of this pattern, ts first."""
        return tuple(t for t in (self.ts, self.te)
                     if t is not None and is_variable(t))

    def constants(self) -> Tuple[str, ...]:
        """The constant terms of this pattern (subject/object only)."""
        return tuple(term for term in (self.subject, self.object)
                     if not is_variable(term))

    def __str__(self) -> str:
        scope = f"GRAPH {self.graph} " if self.graph else ""
        suffix = f" [{self.ts}, {self.te})" if self.has_interval else ""
        return (f"{scope}{{ {self.subject} {self.predicate} "
                f"{self.object}{suffix} }}")


@dataclass(frozen=True)
class WindowSpec:
    """A C-SPARQL sliding window: ``[RANGE r STEP s]`` in milliseconds.

    ``range_ms`` is how far back the window reaches; ``step_ms`` is the
    slide (and re-execution) interval.
    """

    range_ms: int
    step_ms: int

    def __post_init__(self) -> None:
        if self.range_ms <= 0:
            raise ValueError(f"window range must be positive: {self.range_ms}")
        if self.step_ms <= 0:
            raise ValueError(f"window step must be positive: {self.step_ms}")

    def span_at(self, close_ms: int) -> Tuple[int, int]:
        """The half-open interval ``[start, end)`` of the window closing at
        ``close_ms``."""
        return close_ms - self.range_ms, close_ms


@dataclass
class Query:
    """A parsed SPARQL or C-SPARQL query.

    Attributes
    ----------
    select:
        Projected variables (empty list means ``SELECT *``).
    patterns:
        All triple patterns in WHERE order, each tagged with its graph.
    windows:
        Stream name -> window spec, from ``FROM <stream> [RANGE..STEP..]``.
    static_graphs:
        Static graph names from plain ``FROM`` clauses.
    name:
        The registration name for continuous queries (``REGISTER QUERY n``).
    """

    select: List[str] = field(default_factory=list)
    patterns: List[TriplePattern] = field(default_factory=list)
    windows: Dict[str, WindowSpec] = field(default_factory=dict)
    static_graphs: List[str] = field(default_factory=list)
    name: Optional[str] = None
    filters: List[FilterExpr] = field(default_factory=list)
    aggregates: List[Aggregate] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    is_ask: bool = False
    #: OPTIONAL groups: each a pattern list to left-outer-join with the
    #: mandatory solution (unmatched rows keep the new variables unbound).
    optionals: List[List[TriplePattern]] = field(default_factory=list)
    #: UNION alternations: each a list of branches (pattern lists) whose
    #: solutions are concatenated; branches must bind the same variables.
    unions: List[List[List[TriplePattern]]] = field(default_factory=list)
    #: SPARQL-T point-in-time scope from ``FROM SNAPSHOT <n>``: the
    #: snapshot number the query reads at.  ``None`` means the current
    #: stable snapshot (the ordinary one-shot behaviour).
    snapshot: Optional[int] = None
    #: SPARQL-T interval conditions over quintuple-pattern endpoints.
    interval_filters: List[IntervalFilter] = field(default_factory=list)
    #: The text :func:`~repro.sparql.parser.parse_query` parsed this from
    #: (None for a hand-built AST): the durable form of a continuous
    #: query.  Not part of equality or :meth:`cache_key`.
    text: Optional[str] = field(default=None, compare=False)

    @property
    def is_continuous(self) -> bool:
        """Continuous queries consume at least one stream window."""
        return bool(self.windows)

    @property
    def has_intervals(self) -> bool:
        """Whether this query binds or constrains valid-time intervals
        (a quintuple pattern or an interval filter)."""
        return bool(self.interval_filters) \
            or any(p.has_interval for p in self.patterns)

    @property
    def is_temporal(self) -> bool:
        """Whether this query needs the temporal subsystem (an explicit
        snapshot scope, or intervals)."""
        return self.snapshot is not None or self.has_intervals

    def cache_key(self) -> Tuple:
        """A hashable normalized form of this query's semantics.

        Two queries with equal keys plan, compile and execute identically,
        so the key addresses compiled-plan caches.  The registration name
        is excluded (it never affects evaluation); window specs are sorted
        by stream name so dict ordering cannot split cache entries.  The
        snapshot scope is included: with the plan cache keyed on
        ``(cache_key, order)``, snapshot-scoped plans key on
        ``(AST, order, snapshot)`` and never collide with the live-query
        entry for the same pattern text.
        """
        def pat(p: TriplePattern) -> Tuple:
            return (p.subject, p.predicate, p.object, p.graph, p.ts, p.te)

        return (
            tuple(pat(p) for p in self.patterns),
            tuple(self.select),
            tuple(sorted((name, w.range_ms, w.step_ms)
                         for name, w in self.windows.items())),
            tuple(self.static_graphs),
            tuple((f.left, f.op, f.right) for f in self.filters),
            tuple((a.func, a.var, a.alias) for a in self.aggregates),
            tuple(self.group_by),
            self.limit,
            self.offset,
            self.is_ask,
            tuple(tuple(pat(p) for p in group) for group in self.optionals),
            tuple(tuple(tuple(pat(p) for p in branch) for branch in union)
                  for union in self.unions),
            self.snapshot,
            tuple((f.left_ts, f.left_te, f.op, f.right_ts, f.right_te)
                  for f in self.interval_filters),
        )

    def interval_variables(self) -> List[str]:
        """All distinct interval endpoint variables, in pattern order."""
        seen: List[str] = []
        for pattern in self.patterns:
            for var in pattern.interval_variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def variables(self) -> List[str]:
        """All distinct variables mentioned by the patterns (mandatory
        graph variables first, then UNION/OPTIONAL groups, then interval
        endpoint variables), in first-use order."""
        seen: List[str] = []
        for pattern in self.patterns:
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        for union in self.unions:
            for branch in union:
                for pattern in branch:
                    for var in pattern.variables():
                        if var not in seen:
                            seen.append(var)
        for group in self.optionals:
            for pattern in group:
                for var in pattern.variables():
                    if var not in seen:
                        seen.append(var)
        for var in self.interval_variables():
            if var not in seen:
                seen.append(var)
        return seen

    def mandatory_variables(self) -> List[str]:
        """Variables bound by the mandatory patterns only."""
        seen: List[str] = []
        for pattern in self.patterns:
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def projected(self) -> List[str]:
        """The output variables (explicit SELECT list, or all variables).

        For aggregate queries this is the grouping prefix; aggregate
        aliases follow it in the final result columns.
        """
        if self.aggregates:
            return list(self.group_by)
        return list(self.select) if self.select else self.variables()

    def output_columns(self) -> List[str]:
        """All result column names (group keys then aggregate aliases)."""
        if self.aggregates:
            return list(self.group_by) + [a.alias for a in self.aggregates]
        return self.projected()

    def stream_patterns(self) -> List[TriplePattern]:
        """Patterns that match against a stream window."""
        return [p for p in self.patterns if p.graph in self.windows]

    def stored_patterns(self) -> List[TriplePattern]:
        """Patterns that match against stored (static/persistent) data."""
        return [p for p in self.patterns if p.graph not in self.windows]
