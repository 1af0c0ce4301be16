"""Chaos under serving load: kill + recovery with ~10^3 registered queries.

The serving layer multiplies the registration count a thousand-fold
without multiplying the evaluation work — so the recovery story must
hold unchanged underneath it: a node kill mid-run, healed by durable-log
replay, leaves every subscriber's delivered rows and the engine's entire
queryable state bit-identical to a never-faulted run, with the missed
closes surfaced as gap markers that resolve after catch-up.  And the
whole thing — fan-out bookkeeping, per-tenant latency samples, proxy
retry jitter — must be deterministic across reruns.
"""

import pytest

from chaos.chaos_workload import (NUM_NODES, STREAMS, TICKS,
                                  TICKS_PER_CHECKPOINT, build_engine)
from core.determinism_workload import CONTINUOUS_QUERIES, ONESHOT_QUERIES
from repro.chaos.controller import ChaosController
from repro.chaos.harness import _execution_facts
from repro.chaos.plan import FaultPlan, KillNode
from repro.chaos.state import diff_digests, engine_state_digest
from repro.serving import AdmissionPolicy, ServingLayer

pytestmark = [pytest.mark.chaos, pytest.mark.serving]

#: Enough subscriptions for the "thousands of registered queries" story;
#: they dedupe to the 6 distinct workload plans.
NUM_SUBSCRIPTIONS = 1_002
NUM_TENANTS = 6

#: Kill node 1 at tick 26 for 4 ticks (mid window-close schedule, inside
#: checkpoint window 3), as in the columnar differential suite.
KILL_TICK, DOWN_TICKS = 26, 4
#: Meters of closes inside the opaque interval — first fault to the
#: checkpoint boundary after the heal — legitimately differ (catch-up
#: executes at a later stable SN); rows must match everywhere.
OPAQUE_MS = (KILL_TICK * 100, ((KILL_TICK + DOWN_TICKS) * 100 // 1_000
                               + 1) * 1_000)


def kill_plan() -> FaultPlan:
    plan = FaultPlan(
        faults=[KillNode(at_tick=KILL_TICK, node_id=1,
                         down_ticks=DOWN_TICKS)],
        name="kill-under-serving-load")
    plan.validate(NUM_NODES, STREAMS, TICKS,
                  ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
    return plan


def build_serving():
    engine = build_engine(register_queries=False)
    serving = ServingLayer(engine, policy=AdmissionPolicy(
        max_subscriptions=2 * NUM_SUBSCRIPTIONS))
    texts = list(CONTINUOUS_QUERIES.values())
    subscriptions = []
    for i in range(NUM_SUBSCRIPTIONS):
        subscriptions.append(serving.register(f"tenant{i % NUM_TENANTS}",
                                              texts[i % len(texts)]))
    return engine, serving, subscriptions


def run_workload(faulted: bool, on_tick=None):
    engine, serving, subscriptions = build_serving()
    if faulted:
        controller = ChaosController(kill_plan())
        controller.attach(engine, ticks=TICKS)
    for _ in range(TICKS):
        serving.tick()
        if on_tick is not None:
            on_tick(subscriptions)
    engine.gc.run(engine.clock.now_ms)
    return engine, serving, subscriptions


def rows_facts(engine):
    """Execution facts without meters (rows must match even for the
    catch-up closes whose meters are opaque)."""
    return {name: [fact[:3] for fact in facts]
            for name, facts in _execution_facts(engine).items()}


def meter_facts_outside_opaque(engine):
    return {name: [fact[3:] for fact in facts
                   if not OPAQUE_MS[0] <= fact[0] <= OPAQUE_MS[1]]
            for name, facts in _execution_facts(engine).items()}


def test_kill_recovery_equivalence_under_serving_load():
    golden_engine, golden, golden_subs = run_workload(faulted=False)
    chaos_engine, chaotic, chaos_subs = run_workload(faulted=True)
    assert chaotic.registry.num_subscribers == NUM_SUBSCRIPTIONS
    assert chaotic.registry.num_shared == len(CONTINUOUS_QUERIES)

    # The kill must actually have disturbed the close schedule.
    markers = [marker for sub in chaos_subs for marker in sub.poll_gaps()]
    assert markers, "fault plan no longer disturbs any window close"
    assert all(marker.resolved for marker in markers), \
        "catch-up must resolve every gap before the run ends"

    # Recovery equivalence, through the serving layer: same rows on
    # every backing execution, same meters outside the opaque interval,
    # same engine state (backing registrations included — both runs
    # share the same deduped set).
    assert rows_facts(chaos_engine) == rows_facts(golden_engine)
    assert meter_facts_outside_opaque(chaos_engine) == \
        meter_facts_outside_opaque(golden_engine)
    assert diff_digests(engine_state_digest(golden_engine),
                        engine_state_digest(chaos_engine)) == []

    # Subscriber-visible equivalence, sampled across tenants and plans:
    # identical decoded rows, including the catch-up deliveries.
    for golden_sub, chaos_sub in list(zip(golden_subs, chaos_subs))[::101]:
        golden_results = [(r.columns, r.rows) for r in golden_sub.poll()]
        chaos_results = [(r.columns, r.rows) for r in chaos_sub.poll()]
        assert golden_results == chaos_results
        assert golden_results, "sampled subscriber saw no closes"
    # Fan-out accounting survives the fault path.
    assert chaotic.results_delivered == golden.results_delivered
    assert chaotic.closes_evaluated == golden.closes_evaluated


def test_shared_decodes_identical_across_kill_and_recovery():
    """Subscribers polling every tick share one decode per close; the
    catch-up closes after the heal (several in one tick) are decoded once
    too, and every delivery equals the never-faulted run's."""
    def polled_run(faulted):
        seen = {}

        def poll_all(subscriptions):
            for index, subscription in enumerate(subscriptions[:60]):
                seen.setdefault(index, []).extend(
                    (r.columns, r.rows) for r in subscription.poll())
        _, serving, _ = run_workload(faulted, on_tick=poll_all)
        return serving.snapshot(), seen

    golden_stats, golden = polled_run(faulted=False)
    chaos_stats, chaotic = polled_run(faulted=True)
    assert chaotic == golden and all(golden.values())
    # 60 polled subscribers on 6 plans: one decode per close, the other
    # nine deliveries of it shared — fault or no fault.
    for stats in (golden_stats, chaos_stats):
        assert stats.results_decoded == stats.closes_evaluated
        assert stats.decodes_shared == 9 * stats.closes_evaluated
    assert chaos_stats.closes_evaluated == golden_stats.closes_evaluated


def test_chaotic_serving_run_deterministic_across_reruns():
    first_engine, first, _ = run_workload(faulted=True)
    second_engine, second, _ = run_workload(faulted=True)
    # Bit-identical everything, meters included: same fault plan, same
    # catch-up schedule, same simulated charges.
    assert _execution_facts(first_engine) == _execution_facts(second_engine)
    assert diff_digests(engine_state_digest(first_engine),
                        engine_state_digest(second_engine)) == []
    assert first.snapshot() == second.snapshot()
    assert first.latency_percentiles("close") == \
        second.latency_percentiles("close")


def test_proxy_retry_under_serving_load_deterministic():
    """One-shot requests hitting the degraded window retry on the seeded
    backoff schedule and succeed after the heal — identically on reruns."""
    query = ONESHOT_QUERIES["O2"]

    def run_with_retries():
        engine, serving, _ = build_serving()
        controller = ChaosController(kill_plan())
        controller.attach(engine, ticks=TICKS)
        requests = []
        for tick in range(TICKS):
            serving.tick()
            if tick == KILL_TICK:  # cluster degraded: request must queue
                requests = [serving.proxies.submit_robust(query)
                            for _ in range(3)]
            serving.proxies.pump()
        return engine, serving, requests

    first_engine, first_serving, first_requests = run_with_retries()
    assert all(request.done and not request.failed
               for request in first_requests)
    assert all(request.attempts > 1 for request in first_requests), \
        "requests must actually have retried through the outage"
    # Complete answers, no partial reads against the half-dead cluster:
    # every retried client sees the same rows.
    answers = {tuple(sorted(request.result.rows))
               for request in first_requests}
    assert len(answers) == 1 and all(request.result.rows
                                     for request in first_requests)

    second_engine, second_serving, second_requests = run_with_retries()
    for ours, theirs in zip(first_requests, second_requests):
        assert ours.backoffs_ns == theirs.backoffs_ns
        assert ours.waited_ns == theirs.waited_ns
        assert ours.attempts == theirs.attempts
        assert ours.result.rows == theirs.result.rows
        assert ours.result.client_latency_ms == \
            theirs.result.client_latency_ms
    assert diff_digests(engine_state_digest(first_engine),
                        engine_state_digest(second_engine)) == []
