"""Relational operators over tuple windows.

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

from typing import Dict, List, Optional, Sequence

from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedTuple
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import TriplePattern, is_variable

#: One relational binding row (same shape as the explorer's rows).
Row = Dict[str, int]


class WindowBuffer:
    """A stream processor's retained tuple buffer for one stream.

    Baseline systems duplicate streaming data into their own buffers (the
    redundancy the integrated design avoids).  ``window`` returns the
    tuples of a time range; ``evict_before`` models the processor's own
    window eviction.
    """

    def __init__(self, stream: str):
        self.stream = stream
        self._tuples: List[EncodedTuple] = []

    def append(self, encoded: EncodedTuple) -> None:
        if self._tuples and encoded.timestamp_ms < self._tuples[-1].timestamp_ms:
            raise ValueError(
                f"stream {self.stream}: out-of-order tuple at "
                f"{encoded.timestamp_ms}")
        self._tuples.append(encoded)

    def extend(self, batch: Sequence[EncodedTuple]) -> None:
        for encoded in batch:
            self.append(encoded)

    def window(self, start_ms: int, end_ms: int) -> List[EncodedTuple]:
        """Tuples with ``start_ms <= ts < end_ms``."""
        return [t for t in self._tuples
                if start_ms <= t.timestamp_ms < end_ms]

    def evict_before(self, cutoff_ms: int) -> int:
        """Drop tuples older than ``cutoff_ms``; returns how many."""
        kept = [t for t in self._tuples if t.timestamp_ms >= cutoff_ms]
        dropped = len(self._tuples) - len(kept)
        self._tuples = kept
        return dropped

    def __len__(self) -> int:
        return len(self._tuples)


def scan_pattern(tuples: Sequence[EncodedTuple], pattern: TriplePattern,
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
    charged = modeled_rows if modeled_rows is not None else len(tuples)
    meter.charge(per_tuple_ns, times=charged, category=category)
    if eid is None:
        return []

    s_const = None if is_variable(pattern.subject) else \
        strings.lookup_entity(pattern.subject)
    o_const = None if is_variable(pattern.object) else \
        strings.lookup_entity(pattern.object)
    if (not is_variable(pattern.subject) and s_const is None) or \
            (not is_variable(pattern.object) and o_const is None):
        return []

    rows: List[Row] = []
    for encoded in tuples:
        triple = encoded.triple
        if triple.p != eid:
            continue
        if s_const is not None and triple.s != s_const:
            continue
        if o_const is not None and triple.o != o_const:
            continue
        row: Row = {}
        if s_const is None:
            row[pattern.subject] = triple.s
        if o_const is None:
            if pattern.object == pattern.subject and \
                    row.get(pattern.subject) != triple.o:
                continue
            row[pattern.object] = triple.o
        rows.append(row)
        meter.charge(cost.binding_ns, category=category)
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
