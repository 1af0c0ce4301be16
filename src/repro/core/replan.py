"""Adaptive re-optimization of registered continuous queries.

A registered query plans exactly once, at registration time — typically
against a near-empty store, so every long-lived query would otherwise run
forever on cold cardinality guesses even though
:class:`~repro.core.stats.PredicateStatistics` (live counters plus top-k
degree sketches) has long since learned the real skew.  This module closes
that gap, following Strider's hybrid adaptive planning (arXiv:1705.05688):
keep executing the current plan, periodically re-derive the ordering from
live statistics, and swap only when the estimated win is large enough to
be worth disturbing a running plan.

:class:`PlanMonitor` runs off the *simulated* clock: the engine invokes it
once per healthy tick, after the continuous poll, so plan swaps always
land between window closes — every close runs start-to-finish under
exactly one plan, which is what makes the post-swap execution stream
bit-identical to a run that used the final ordering from the start
(``tests/core/test_replan.py`` proves rows, meters and state digest).

The keep-or-swap rule (per query, every ``check_every_closes`` closes):

1. Freeze the statistics into a :class:`~repro.core.stats.StatsSnapshot`
   (one consistent epoch for both sides of the comparison).
2. Candidate ordering = ``plan_order(patterns, stats=snapshot)``.
3. If the candidate differs, compare ``estimate_plan_cost`` of the active
   vs candidate ordering *under the same snapshot*.  Swap only when the
   active plan is estimated at ≥ ``hysteresis`` times the candidate's cost
   (default 1.5x) **and** the query is past its swap cool-down
   (``cooldown_closes`` closes since the last swap).  Oscillating
   statistics therefore trigger at most one re-plan per cool-down window;
   everything else increments a skip counter instead.

Queries registered with an explicit ``fixed_order`` are *pinned* and never
re-planned — golden workloads pin their registration-time orders so
adaptive engines replay them bit-identically.

The same telemetry-driven theme covers the adjacency-segment cache:
:class:`AdjacencyBudget` resizes each shard's cache capacity from the
hit/miss/eviction counters the obs metrics registry exports, instead of
trusting the fixed ``EngineConfig`` knob forever.  Both controllers are
wall-clock-only actuators in the simulated-cost sense: a plan swap changes
which (simulated) work each close performs — that is the point, and why
``adaptive_replan`` defaults off — while adjacency resizing never changes
simulated charges at all (cache hits charge exactly the uncached cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.continuous import ContinuousEngine, RegisteredQuery
from repro.sparql.planner import estimate_plan_cost, plan_order


@dataclass(frozen=True)
class ReplanEvent:
    """One applied plan swap (kept on the query handle, in order)."""

    query: str
    #: Closes the query had executed when the swap was applied.
    close_index: int
    #: Simulated clock at the swap.
    clock_ms: int
    old_order: Tuple[int, ...]
    new_order: Tuple[int, ...]
    #: ``estimate_plan_cost`` of both orderings under the decision
    #: snapshot (same epoch for both — that is the determinism contract).
    estimated_old_cost: float
    estimated_new_cost: float
    #: Statistics epoch the decision snapshot was taken at.
    stats_epoch: int

    @property
    def estimated_improvement(self) -> float:
        if self.estimated_new_cost > 0:
            return self.estimated_old_cost / self.estimated_new_cost
        return math.inf if self.estimated_old_cost > 0 else 1.0


class PlanMonitor:
    """Periodic statistics-driven re-planning with hysteresis.

    ``statistics`` is any provider with the ``PredicateStatistics``
    interface plus ``snapshot(patterns)``/``epoch()``; tests substitute
    synthetic providers to script stat trajectories.
    """

    def __init__(self, continuous: ContinuousEngine, statistics,
                 check_every_closes: int = 8, hysteresis: float = 1.5,
                 cooldown_closes: int = 24):
        if check_every_closes < 1:
            raise ValueError(
                f"check_every_closes must be >= 1: {check_every_closes}")
        if hysteresis < 1.0:
            raise ValueError(f"hysteresis must be >= 1.0: {hysteresis}")
        if cooldown_closes < 1:
            raise ValueError(
                f"cooldown_closes must be >= 1: {cooldown_closes}")
        self.continuous = continuous
        self.statistics = statistics
        self.check_every_closes = check_every_closes
        self.hysteresis = hysteresis
        self.cooldown_closes = cooldown_closes
        #: Wall-clock-only decision counters (pulled by
        #: ``repro.obs.metrics.collect_metrics``).
        self.checks = 0
        self.replans = 0
        self.skipped_hysteresis = 0
        self.skipped_cooldown = 0
        #: Observability hooks (attached by ``engine.enable_observability``).
        self.tracer = None
        self.metrics = None

    # -- cadence -----------------------------------------------------------
    def on_tick(self, now_ms: int) -> List[ReplanEvent]:
        """Run due re-plan checks; called between window closes.

        A query becomes due every ``check_every_closes`` *executed* closes
        (counting executions, not wall ticks, keeps the cadence aligned
        with how much evidence the window stream has produced — an idle
        query is never re-planned on stale evidence).
        """
        events: List[ReplanEvent] = []
        for registered in self.continuous.queries.values():
            if registered.pinned:
                continue
            closes = len(registered.executions)
            if closes - registered.closes_at_last_check \
                    < self.check_every_closes:
                continue
            registered.closes_at_last_check = closes
            event = self._check(registered, closes, now_ms)
            if event is not None:
                events.append(event)
        return events

    # -- the keep-or-swap decision ----------------------------------------
    def _check(self, registered: RegisteredQuery, closes: int,
               now_ms: int) -> Optional[ReplanEvent]:
        patterns = registered.query.patterns
        snapshot = self.statistics.snapshot(patterns)
        candidate = tuple(plan_order(patterns, stats=snapshot))
        current = registered.plan_order
        self.checks += 1
        current_cost = estimate_plan_cost(patterns, current, snapshot)
        if self.metrics is not None:
            self._publish_costs(registered, current_cost)
        if candidate == current:
            return None
        candidate_cost = estimate_plan_cost(patterns, candidate, snapshot)
        if candidate_cost > 0:
            improvement = current_cost / candidate_cost
        else:
            improvement = math.inf if current_cost > 0 else 1.0
        if improvement < self.hysteresis:
            self.skipped_hysteresis += 1
            if self.metrics is not None:
                self.metrics.counter("planner_replan_skipped_hysteresis",
                                     query=registered.name).inc()
            return None
        last_swap = registered.closes_at_last_swap
        if last_swap is not None and \
                closes - last_swap < self.cooldown_closes:
            self.skipped_cooldown += 1
            if self.metrics is not None:
                self.metrics.counter("planner_replan_skipped_cooldown",
                                     query=registered.name).inc()
            return None
        event = ReplanEvent(
            query=registered.name, close_index=closes, clock_ms=now_ms,
            old_order=current, new_order=candidate,
            estimated_old_cost=current_cost,
            estimated_new_cost=candidate_cost,
            stats_epoch=snapshot.epoch)
        self.continuous.swap_plan(registered, candidate)
        registered.closes_at_last_swap = closes
        registered.replans.append(event)
        self.replans += 1
        if self.metrics is not None:
            self.metrics.counter("planner_replans",
                                 query=registered.name).inc()
        if self.tracer is not None:
            # An instantaneous simulated-time event: the swap itself
            # charges nothing (it happens between closes), so the span is
            # recorded after the fact with zero duration.
            self.tracer.event_span(
                "replan", "planner", 0, query=registered.name,
                close_index=closes,
                old_order=",".join(map(str, current)),
                new_order=",".join(map(str, candidate)),
                improvement=round(event.estimated_improvement, 3),
                stats_epoch=snapshot.epoch)
        return event

    def _publish_costs(self, registered: RegisteredQuery,
                       estimated_cost: float) -> None:
        """Estimated-vs-actual gauges for the *active* plan: the model's
        cost estimate next to the simulated latency the plan actually
        produced at its most recent close."""
        self.metrics.gauge("planner_estimated_cost",
                           query=registered.name).set(estimated_cost)
        if registered.executions:
            self.metrics.gauge(
                "planner_actual_close_ns",
                query=registered.name).set(
                    registered.executions[-1].meter.ns)


class AdjacencyBudget:
    """Telemetry-driven sizing of the per-shard adjacency-segment cache.

    Every ``every_ticks`` engine ticks, reads each shard's hit/miss/
    eviction deltas since its last look (the same counters the obs
    metrics registry exports as ``adjacency_*``) and resizes:

    * evictions in the window → the working set does not fit; double the
      capacity (up to ``max_capacity``).
    * no evictions and the cache is at most a quarter full → pay back the
      memory; halve the capacity (down to ``min_capacity``), evicting any
      overflow in insertion order.

    Purely wall-clock: adjacency hits charge exactly the uncached cost,
    so capacity changes never move simulated time (the invariant
    ``tests/store/test_adjacency_cache.py`` pins).
    """

    def __init__(self, store, min_capacity: int = 1 << 10,
                 max_capacity: int = 1 << 20, every_ticks: int = 10):
        if min_capacity < 1 or max_capacity < min_capacity:
            raise ValueError(
                f"bad capacity bounds: [{min_capacity}, {max_capacity}]")
        if every_ticks < 1:
            raise ValueError(f"every_ticks must be >= 1: {every_ticks}")
        self.store = store
        self.min_capacity = min_capacity
        self.max_capacity = max_capacity
        self.every_ticks = every_ticks
        self._ticks = 0
        #: Per-shard (hits, misses, evictions) at the last look.
        self._last: dict = {}
        self.grows = 0
        self.shrinks = 0
        self.metrics = None

    def on_tick(self) -> None:
        self._ticks += 1
        if self._ticks % self.every_ticks:
            return
        for node_id, shard in enumerate(self.store.shards):
            seen = (shard.adjacency_hits, shard.adjacency_misses,
                    shard.adjacency_evictions)
            last = self._last.get(node_id, (0, 0, 0))
            self._last[node_id] = seen
            hits = seen[0] - last[0]
            misses = seen[1] - last[1]
            evictions = seen[2] - last[2]
            if hits + misses == 0:
                continue  # idle shard: no evidence either way
            capacity = shard.adjacency_capacity
            occupancy = shard._adjacency_weight if shard.adjacency_weighted \
                else len(shard._adjacency)
            if evictions > 0 and capacity < self.max_capacity:
                shard.set_adjacency_capacity(
                    min(self.max_capacity, capacity * 2))
                self.grows += 1
            elif evictions == 0 and occupancy * 4 <= capacity \
                    and capacity > self.min_capacity:
                shard.set_adjacency_capacity(
                    max(self.min_capacity, capacity // 2))
                self.shrinks += 1
            if self.metrics is not None:
                self.metrics.gauge("adjacency_cache_capacity",
                                   node=node_id).set(
                                       shard.adjacency_capacity)
