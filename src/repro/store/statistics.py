"""Planner statistics: selectivity estimates read off the store's counters.

:class:`PredicateStatistics` is the live per-predicate cardinality view
the cost-aware planner (``repro.sparql.planner``) and the adaptive
re-planner (``repro.core.replan``) consume; the counters it reads are
kept by ``ShardStore`` at load/injection time.  :class:`StatsSnapshot`
freezes the estimates one decision needs.  The engine builds one
instance and hands it to both consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.sparql.ast import is_variable
from repro.store.distributed import DistributedStore


@dataclass(frozen=True)
class StatsSnapshot:
    """A frozen, point-in-time capture of :class:`PredicateStatistics`.

    The adaptive re-planner (``repro.core.replan``) must make its
    keep-or-swap decision and compute both plans' cost estimates from *one*
    consistent set of numbers — reading the live view twice could interleave
    with injection and compare plans under different statistics.  A snapshot
    captures every estimate a given pattern set can ask for (predicate
    means, index sizes, and the specific degrees of the constants that
    actually appear) into plain dicts, plus the ``epoch`` the capture was
    taken at, so a re-plan decision is a pure function of
    ``(patterns, epoch)`` and reproducible after the fact.

    Exposes the same five accessors as the live view, so it can be passed
    anywhere a statistics provider is accepted (``plan_order``,
    ``estimate_plan_cost``).
    """

    #: Monotone store-growth counter at capture time (see
    #: :meth:`PredicateStatistics.epoch`).
    epoch: int
    out_degrees: Dict[str, float]
    in_degrees: Dict[str, float]
    index_sizes: Dict[str, float]
    subject_degrees: Dict[Tuple[str, str], float]
    object_degrees: Dict[Tuple[str, str], float]

    def out_degree(self, predicate: str) -> float:
        return self.out_degrees.get(predicate, 0.0)

    def in_degree(self, predicate: str) -> float:
        return self.in_degrees.get(predicate, 0.0)

    def index_size(self, predicate: str) -> float:
        return self.index_sizes.get(predicate, 0.0)

    def subject_degree(self, predicate: str, term: str) -> float:
        return self.subject_degrees.get((predicate, term),
                                        self.out_degree(predicate))

    def object_degree(self, predicate: str, term: str) -> float:
        return self.object_degrees.get((predicate, term),
                                       self.in_degree(predicate))


class PredicateStatistics:
    """Selectivity estimates from the store's cardinality counters.

    A *live view*: every estimate reads the shards' current counters, so
    plans adapt as injection evolves the store without any refresh hook.
    All three accessors are pure functions of deterministic counters,
    which makes statistics-driven plan ordering reproducible run-to-run.
    Predicates the store has never seen estimate to 0.0 — unknown
    predicates produce empty results, the cheapest possible step.

    Estimates (Strider-style, arXiv:1705.05688):

    ``out_degree(p)``   mean neighbours per subject — the fan-out of a
                        forward traversal through ``p``.
    ``in_degree(p)``    mean neighbours per object — the fan-out of a
                        reverse traversal.
    ``index_size(p)``   total ``p`` edges — the enumeration cost of an
                        index-vertex start.

    Constant-specific estimates replace the means with the constant's
    exact degree, read off its value list (``DistributedStore.degree``),
    so the planner can tell a hot hashtag from a cold one instead of
    charging both the mean; a constant with no such edge falls back to
    the mean:

    ``subject_degree(p, term)``  degree of the specific subject constant.
    ``object_degree(p, term)``   degree of the specific object constant.
    """

    def __init__(self, store: DistributedStore):
        self.store = store
        self.strings = store.strings

    def _cardinality(self, predicate: str, d: int) -> Tuple[int, int]:
        eid = self.strings.lookup_predicate(predicate)
        if eid is None:
            return 0, 0
        return self.store.predicate_cardinality(eid, d)

    def out_degree(self, predicate: str) -> float:
        entries, keys = self._cardinality(predicate, DIR_OUT)
        return entries / keys if keys else 0.0

    def in_degree(self, predicate: str) -> float:
        entries, keys = self._cardinality(predicate, DIR_IN)
        return entries / keys if keys else 0.0

    def index_size(self, predicate: str) -> float:
        return float(self._cardinality(predicate, DIR_OUT)[0])

    def _specific_degree(self, predicate: str, term: str, d: int,
                         fallback) -> float:
        eid = self.strings.lookup_predicate(predicate)
        vid = self.strings.lookup_entity(term)
        if eid is not None and vid is not None:
            degree = self.store.degree(eid, d, vid)
            if degree is not None:
                return float(degree)
        return fallback(predicate)

    def subject_degree(self, predicate: str, term: str) -> float:
        """Fan-out of the specific constant subject ``term`` (its exact
        degree, else the predicate's mean out-degree)."""
        return self._specific_degree(predicate, term, DIR_OUT,
                                     self.out_degree)

    def object_degree(self, predicate: str, term: str) -> float:
        """Fan-in of the specific constant object ``term`` (its exact
        degree, else the predicate's mean in-degree)."""
        return self._specific_degree(predicate, term, DIR_IN,
                                     self.in_degree)

    def epoch(self) -> int:
        """A monotone counter of store growth: total adjacency entries
        inserted across every shard's per-predicate buckets.

        Inserts only ever increment the underlying counters, so two calls
        returning the same epoch saw the *same* statistics — which lets the
        adaptive re-planner stamp each decision with the epoch it was made
        under and lets tests assert that equal epochs imply equal
        snapshots.  Cheap: the sum walks per-(predicate, direction) buckets,
        not entries.
        """
        return sum(sum(shard._pred_entries.values())
                   for shard in self.store.shards)

    def snapshot(self, patterns) -> StatsSnapshot:
        """Freeze every estimate ``patterns`` can ask for (see
        :class:`StatsSnapshot`).  Constants are captured with their
        specific (exact) degrees under the predicate they appear with."""
        out_degrees: Dict[str, float] = {}
        in_degrees: Dict[str, float] = {}
        index_sizes: Dict[str, float] = {}
        subject_degrees: Dict[Tuple[str, str], float] = {}
        object_degrees: Dict[Tuple[str, str], float] = {}
        for pattern in patterns:
            predicate = pattern.predicate
            if predicate not in out_degrees:
                out_degrees[predicate] = self.out_degree(predicate)
                in_degrees[predicate] = self.in_degree(predicate)
                index_sizes[predicate] = self.index_size(predicate)
            if not is_variable(pattern.subject):
                subject_degrees[(predicate, pattern.subject)] = \
                    self.subject_degree(predicate, pattern.subject)
            if not is_variable(pattern.object):
                object_degrees[(predicate, pattern.object)] = \
                    self.object_degree(predicate, pattern.object)
        return StatsSnapshot(
            epoch=self.epoch(), out_degrees=out_degrees,
            in_degrees=in_degrees, index_sizes=index_sizes,
            subject_degrees=subject_degrees, object_degrees=object_degrees)
