"""The query-compile pipeline: parse → order → plan → compile, cached.

The client library turns query text into stored procedures that the
servers execute or register (§3), so text → AST → pattern order →
:class:`~repro.sparql.planner.ExecutionPlan` → compiled form is one
pipeline.  :class:`QueryPipeline` is its only implementation: every
engine execution path (one-shot, time-scoped, snapshot, interval,
continuous registration and re-plan swaps) plans through
:meth:`QueryPipeline.plan`, and every cache on that path — parsed
texts, compiled plans, the client's procedures and known constants — is
an :class:`LRUCache` with the same bound and the same counters.

Nothing here is simulated: parsing, ordering, planning and compiling
charge no :class:`~repro.sim.cost.LatencyMeter`, so a hit, a miss or an
eviction can never move a simulated picosecond.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from repro.sparql.ast import Query
from repro.sparql.parser import parse_query
from repro.sparql.planner import ExecutionPlan, plan_order, plan_query
from repro.store.executor import _CompiledPlan

#: Entries kept per cache (LRU).  A front end's hot catalogue must
#: survive a stream of used-once texts in between: ~100 hot texts
#: interleaved 1:1 with cold ones have a reuse distance of ~200 distinct
#: texts, which FIFO or a capacity near it would evict.
CACHE_CAPACITY = 512

#: What a plan-cache lookup is counted under, derived from the AST (a
#: label for the counters only — every kind compiles to the same form):
#: a query with quintuple patterns or interval FILTERs, a windowed
#: (C-SPARQL) query, or a plain one-shot (snapshot-scoped ones included).
PLAN_KINDS = ("oneshot", "continuous", "interval")


class LRUCache:
    """A mapping bounded at :data:`CACHE_CAPACITY` entries that evicts
    the least recently used one.  Values must not be None."""

    __slots__ = ("_entries", "hits", "misses", "evictions")

    def __init__(self) -> None:
        #: Insertion-ordered, least recently used first.
        self._entries: Dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """The value under ``key`` — now the most recently used — or
        None; counts a hit or a miss."""
        entries = self._entries
        value = entries.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        entries[key] = value
        return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used one when over capacity."""
        entries = self._entries
        entries.pop(key, None)
        entries[key] = value
        if len(entries) > CACHE_CAPACITY:
            del entries[next(iter(entries))]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


def plan_kind(query: Query) -> str:
    """The :data:`PLAN_KINDS` label of ``query``."""
    if query.has_intervals:
        return "interval"
    return "continuous" if query.is_continuous else "oneshot"


class QueryPipeline:
    """Parse and plan queries for one engine, through bounded caches."""

    def __init__(self) -> None:
        #: Query text -> parsed AST (parsing is pure: never stale).
        self.texts = LRUCache()
        #: ``(normalized AST, pattern order) -> compiled ExecutionPlan``.
        #: The order is part of the key, so a re-plan to a new ordering
        #: always builds — and compiles — a fresh plan.
        self.plans = LRUCache()
        #: Plan-cache lookups per :func:`plan_kind` (the caches' own
        #: ``hits`` / ``misses`` are the totals).
        self.plan_hits = dict.fromkeys(PLAN_KINDS, 0)
        self.plan_misses = dict.fromkeys(PLAN_KINDS, 0)

    def parse(self, text: str) -> Query:
        """The AST of ``text``."""
        query = self.texts.get(text)
        if query is None:
            query = parse_query(text)
            self.texts.put(text, query)
        return query

    def plan(self, query: Query, *, stats=None,
             fixed_order: Optional[Sequence[int]] = None) -> ExecutionPlan:
        """The compiled plan of ``query``.

        The greedy ordering pass runs on every call (it is cheap and
        must track the store's evolving cardinalities) unless
        ``fixed_order`` pins the order; ``stats`` feeds it selectivity
        estimates.  The constructed plan and its compiled form
        (``plan.compiled``) are reused whenever the normalized AST *and*
        the order repeat.
        """
        order = tuple(fixed_order) if fixed_order is not None \
            else tuple(plan_order(query.patterns, stats=stats))
        key = (query.cache_key(), order)
        kind = plan_kind(query)
        plan = self.plans.get(key)
        if plan is not None:
            self.plan_hits[kind] += 1
            return plan
        self.plan_misses[kind] += 1
        plan = plan_query(query, fixed_order=order)
        plan.compiled = _CompiledPlan(plan)
        self.plans.put(key, plan)
        return plan
