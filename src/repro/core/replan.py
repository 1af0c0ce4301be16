"""Adaptive re-optimization of registered continuous queries.

A registered query plans exactly once, at registration time — typically
against a near-empty store, so every long-lived query would otherwise run
forever on cold cardinality guesses even though
:class:`~repro.core.stats.PredicateStatistics` (live counters plus exact
per-constant degrees) has long since learned the real skew.  This module closes
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
   active plan is estimated at ≥ :data:`HYSTERESIS` times the candidate's
   cost **and** the query is past its swap cool-down
   (:data:`COOLDOWN_CLOSES` closes since the last swap).  Oscillating
   statistics therefore trigger at most one re-plan per cool-down window;
   everything else increments a skip counter instead.

Queries registered with an explicit ``fixed_order`` are *pinned* and never
re-planned — golden workloads pin their registration-time orders so
adaptive engines replay them bit-identically.

A plan swap itself charges nothing, but it changes which (simulated)
work each close performs — that is the point, and why ``adaptive_replan``
defaults off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.continuous import ContinuousEngine, RegisteredQuery
from repro.sparql.planner import estimate_plan_cost, plan_order

#: A swap needs the active plan estimated at this many times the
#: candidate's cost.
HYSTERESIS = 1.5
#: Executed closes a query waits after a swap before it may swap again.
COOLDOWN_CLOSES = 24


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
                 check_every_closes: int):
        if check_every_closes < 1:
            raise ValueError(
                f"check_every_closes must be >= 1: {check_every_closes}")
        self.continuous = continuous
        self.statistics = statistics
        self.check_every_closes = check_every_closes
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
        if improvement < HYSTERESIS:
            self.skipped_hysteresis += 1
            if self.metrics is not None:
                self.metrics.counter("planner_replan_skipped_hysteresis",
                                     query=registered.name).inc()
            return None
        last_swap = registered.closes_at_last_swap
        if last_swap is not None and \
                closes - last_swap < COOLDOWN_CLOSES:
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
