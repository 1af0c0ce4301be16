"""A Jena-like triple store: correct but slow, probe-priced lookups.

CSPARQL-engine pairs Esper with Apache Jena (§2.3).  This miniature keeps
triples in simple subject/object/predicate hash indexes and charges an
interpretive per-probe cost (:attr:`CostModel.jena_probe_ns`) plus
per-result scanning — orders of magnitude above the RDMA-priced Wukong
paths, matching the paper's "slow building blocks" observation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.relational import Row
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import TriplePattern, is_variable


class JenaStore:
    """In-memory triple store with (s,p) / (o,p) / (p) hash indexes."""

    def __init__(self, strings: StringServer, cost: CostModel):
        self.strings = strings
        self.cost = cost
        self._by_sp: Dict[Tuple[int, int], List[int]] = {}
        self._by_op: Dict[Tuple[int, int], List[int]] = {}
        self._by_p: Dict[int, List[Tuple[int, int]]] = {}
        self.num_triples = 0

    def load(self, triples: Iterable[Triple]) -> int:
        columns = self.strings.encode_triples(triples)
        for s, p, o in zip(columns.s, columns.p, columns.o):
            self._by_sp.setdefault((s, p), []).append(o)
            self._by_op.setdefault((o, p), []).append(s)
            self._by_p.setdefault(p, []).append((s, o))
        self.num_triples += len(columns)
        return len(columns)

    # -- pattern evaluation ------------------------------------------------
    def match(self, pattern: TriplePattern, seeds: List[Row],
              meter: LatencyMeter) -> List[Row]:
        """Extend seed rows through one pattern (probe-per-seed pricing)."""
        eid = self.strings.lookup_predicate(pattern.predicate)
        if eid is None:
            meter.charge(self.cost.jena_probe_ns, category="jena")
            return []
        out: List[Row] = []
        for seed in seeds:
            out.extend(self._match_one(pattern, eid, seed, meter))
        return out

    def _match_one(self, pattern: TriplePattern, eid: int, seed: Row,
                   meter: LatencyMeter) -> List[Row]:
        meter.charge(self.cost.jena_probe_ns, category="jena")
        s_bound = self._resolve(pattern.subject, seed)
        o_bound = self._resolve(pattern.object, seed)
        if s_bound == -1 or o_bound == -1:
            return []  # a constant term the store has never seen

        if s_bound is not None:
            objects = self._by_sp.get((s_bound, eid), [])
            meter.charge(self.cost.scan_entry_ns, times=len(objects),
                         category="jena")
            return self._emit(pattern, seed, [(s_bound, o) for o in objects],
                              o_bound, meter)
        if o_bound is not None:
            subjects = self._by_op.get((o_bound, eid), [])
            meter.charge(self.cost.scan_entry_ns, times=len(subjects),
                         category="jena")
            return self._emit(pattern, seed, [(s, o_bound) for s in subjects],
                              o_bound, meter)
        pairs = self._by_p.get(eid, [])
        meter.charge(self.cost.scan_entry_ns, times=len(pairs),
                     category="jena")
        return self._emit(pattern, seed, pairs, o_bound, meter)

    def _resolve(self, term: str, seed: Row) -> Optional[int]:
        """Bound value for a term: constant id, seed binding, or None.

        Returns -1 for a constant term unknown to the string server (the
        pattern can then never match).
        """
        if is_variable(term):
            return seed.get(term)
        vid = self.strings.lookup_entity(term)
        return vid if vid is not None else -1

    def _emit(self, pattern: TriplePattern, seed: Row,
              pairs: List[Tuple[int, int]], o_bound: Optional[int],
              meter: LatencyMeter) -> List[Row]:
        out: List[Row] = []
        for s, o in pairs:
            if o_bound is not None and o != o_bound:
                continue
            row = dict(seed)
            if is_variable(pattern.subject):
                if pattern.subject in row and row[pattern.subject] != s:
                    continue
                row[pattern.subject] = s
            if is_variable(pattern.object):
                if pattern.object in row and row[pattern.object] != o:
                    continue
                row[pattern.object] = o
            out.append(row)
            meter.charge(self.cost.binding_ns, category="jena")
        return out
