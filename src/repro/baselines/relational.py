"""Relational operators over columnar tuple windows.

The stream processors the paper compares against (Esper inside
CSPARQL-engine, Storm/Heron bolts, Spark SQL) evaluate triple patterns as
relational *scans* over tuple tables followed by *hash joins* — precisely
the approach that suffers on highly linked data ("join bomb", §2.2): every
pattern scan materialises a binding table and every join pays build+probe
costs over potentially huge intermediates.

These operators produce correct bindings (cross-checked against the graph
explorer in tests) while charging engine-specific per-tuple costs supplied
by the caller.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import le
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import StreamError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns, TimedTuple, Triple
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import Query, TriplePattern, is_variable

#: One relational binding row (same shape as the explorer's rows).
Row = Dict[str, int]


class WindowBuffer:
    """A stream processor's retained tuple table for one stream.

    Baseline systems duplicate streaming data into their own buffers (the
    redundancy the integrated design avoids).  The table ``columns`` is
    one :class:`~repro.rdf.terms.EncodedColumns` in arrival order, grown
    in place by :meth:`extend` alone (readers only read it); timestamps
    never fall, so ``window`` bisects the ``ts`` column.
    """

    def __init__(self, stream: str):
        self.stream = stream
        self.columns = EncodedColumns()

    def extend(self, columns: EncodedColumns) -> None:
        """Append a batch; a batch whose timestamps fall anywhere (within
        it or below the table's last) is refused whole."""
        table = self.columns
        stamps = columns.ts if not table.ts else [table.ts[-1], *columns.ts]
        if not all(map(le, stamps, stamps[1:])):
            ts = next(b for a, b in zip(stamps, stamps[1:]) if b < a)
            raise StreamError(
                f"stream {self.stream}: out-of-order tuple at {ts}")
        table.s.extend(columns.s)
        table.p.extend(columns.p)
        table.o.extend(columns.o)
        table.ts.extend(columns.ts)

    def window(self, start_ms: int, end_ms: int) -> EncodedColumns:
        """The rows with ``start_ms <= ts < end_ms``, as new columns."""
        table = self.columns
        lo = bisect_left(table.ts, start_ms)
        hi = bisect_left(table.ts, end_ms)
        return EncodedColumns(table.s[lo:hi], table.p[lo:hi],
                              table.o[lo:hi], table.ts[lo:hi])

    def __len__(self) -> int:
        return len(self.columns)


def load_by_predicate(tables: Dict[int, WindowBuffer],
                      strings: StringServer,
                      triples: Iterable[Triple]) -> int:
    """Append stored triples, encoded at timestamp 0, to one table per
    predicate eid (the relational engines' predicate-indexed stored
    DataFrame); returns how many."""
    columns = strings.encode_columns([TimedTuple(triple, 0)
                                      for triple in triples])
    rows_of: Dict[int, List[int]] = {}
    for row, eid in enumerate(columns.p):
        rows_of.setdefault(eid, []).append(row)
    for eid, rows in rows_of.items():
        tables.setdefault(eid, WindowBuffer("stored")).extend(
            columns.take(rows))
    return len(columns)


def window_rows(buffers: Dict[str, WindowBuffer], query: Query,
                pattern: TriplePattern, close_ms: int) -> EncodedColumns:
    """The rows of ``pattern``'s stream inside its window at ``close_ms``."""
    start_ms, end_ms = query.windows[pattern.graph].span_at(close_ms)
    buffer = buffers.get(pattern.graph)
    return buffer.window(start_ms, end_ms) if buffer is not None \
        else EncodedColumns()


def scan_pattern(columns: EncodedColumns, pattern: TriplePattern,
                 strings: StringServer, meter: LatencyMeter,
                 per_tuple_ns: int, cost: CostModel,
                 modeled_rows: Optional[int] = None,
                 category: str = "scan") -> List[Row]:
    """Filter a tuple table by one pattern, producing binding rows.

    ``per_tuple_ns`` is the engine's per-tuple processing overhead;
    ``modeled_rows`` overrides the number of rows charged for (engines that
    scan a larger physical table than the slice we iterate, e.g. Spark's
    whole-DataFrame scans, pass the full table size here).
    """
    eid = strings.lookup_predicate(pattern.predicate)
    charged = modeled_rows if modeled_rows is not None else len(columns)
    meter.charge(per_tuple_ns, times=charged, category=category)
    if eid is None:
        return []

    subject, obj = pattern.subject, pattern.object
    s_const = None if is_variable(subject) else strings.lookup_entity(subject)
    o_const = None if is_variable(obj) else strings.lookup_entity(obj)
    if (not is_variable(subject) and s_const is None) or \
            (not is_variable(obj) and o_const is None):
        return []

    rows: List[Row] = []
    for s, p, o in zip(columns.s, columns.p, columns.o):
        if p != eid:
            continue
        if s_const is not None and s != s_const:
            continue
        if o_const is not None and o != o_const:
            continue
        row: Row = {}
        if s_const is None:
            row[subject] = s
        if o_const is None:
            if obj == subject and row.get(subject) != o:
                continue
            row[obj] = o
        rows.append(row)
    meter.charge(cost.binding_ns, times=len(rows), category=category)
    return rows


def scan_join(rows: Optional[List[Row]], patterns: Sequence[TriplePattern],
              scan: Callable[[TriplePattern], List[Row]],
              meter: LatencyMeter, cost: CostModel,
              category: str = "join") -> Optional[List[Row]]:
    """Scan each pattern and hash-join it onto ``rows``, left to right.

    ``rows`` of None means nothing is bound yet: the first scan seeds the
    table.  Returns None only when both ``rows`` and ``patterns`` are
    empty.
    """
    for pattern in patterns:
        scanned = scan(pattern)
        rows = scanned if rows is None else \
            hash_join(rows, scanned, meter, cost, category=category)
    return rows


def hash_join(left: List[Row], right: List[Row], meter: LatencyMeter,
              cost: CostModel, category: str = "join") -> List[Row]:
    """Natural hash join on the variables the two sides share.

    With no shared variable this degenerates to a cross product, exactly
    as a relational engine would behave.
    """
    if not left or not right:
        meter.charge(cost.join_build_ns, times=len(left), category=category)
        meter.charge(cost.join_probe_ns, times=len(right), category=category)
        return []
    shared = sorted(set(left[0].keys()) & set(right[0].keys()))

    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    table: Dict[tuple, List[Row]] = {}
    for row in build:
        key = tuple(row[var] for var in shared)
        table.setdefault(key, []).append(row)
        meter.charge(cost.join_build_ns, category=category)

    out: List[Row] = []
    for row in probe:
        key = tuple(row[var] for var in shared)
        meter.charge(cost.join_probe_ns, category=category)
        for match in table.get(key, ()):
            merged = dict(match)
            merged.update(row)
            out.append(merged)
            meter.charge(cost.binding_ns, category=category)
    return out


def left_join(left: List[Row], right: List[Row], meter: LatencyMeter,
              cost: CostModel, category: str = "join") -> List[Row]:
    """Left outer join: OPTIONAL semantics.

    Every left row compatible with no right row survives unextended; a
    shared variable is compatible when both sides bind it equally.
    """
    out: List[Row] = []
    for lrow in left:
        matched = False
        for rrow in right:
            meter.charge(cost.join_probe_ns, category=category)
            if all(lrow.get(key, value) == value
                   for key, value in rrow.items()):
                merged = dict(lrow)
                merged.update(rrow)
                out.append(merged)
                matched = True
                meter.charge(cost.binding_ns, category=category)
        if not matched:
            out.append(lrow)
    return out


def project(rows: List[Row], variables: Sequence[str],
            meter: LatencyMeter, cost: CostModel) -> List[tuple]:
    """Deduplicating projection to the output variables."""
    seen = set()
    out: List[tuple] = []
    for row in rows:
        key = tuple(row.get(var, -1) for var in variables)
        if key not in seen:
            seen.add(key)
            out.append(key)
            meter.charge(cost.binding_ns, category="project")
    return out


def finalize(rows: List[Row], query, strings: StringServer,
             meter: LatencyMeter, cost: CostModel) -> List[tuple]:
    """Apply the query's FILTERs, then aggregate or project.

    Relational engines evaluate filters after their joins (no
    mid-exploration pruning) and share the aggregation semantics of
    :mod:`repro.sparql.evaluate` with the graph explorer.
    """
    from repro.sparql.evaluate import aggregate_rows, apply_filters
    rows = apply_filters(rows, query.filters, strings.entity_name,
                         strings.lookup_entity, meter, cost)
    if query.is_ask:
        return [()] if rows else []
    if query.aggregates:
        out = aggregate_rows(rows, query, strings.entity_name, meter, cost)
    else:
        out = project(rows, query.projected(), meter, cost)
    if query.offset:
        out = out[query.offset:]
    if query.limit is not None:
        out = out[:query.limit]
    return out
