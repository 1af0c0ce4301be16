"""Serving layer mechanics: sharing, fan-out, cursors, lifecycle, metrics.

The behavioural contract: registrations deduplicate by normalized plan
(registration names never matter), one window close feeds every
subscriber of a shared entry with identical decoded results, late
subscribers only see closes after their registration, the backing query
dies with its last subscriber, and the always-on counters reconcile
exactly with what was delivered.
"""

import pytest

from repro.errors import (ParseError, PlanError, RegistrationError,
                          SnapshotNotYetStableError, StoreError)
from repro.obs.metrics import collect_metrics
from repro.serving import AdmissionPolicy
from serving.serving_workload import build_serving, window_query

pytestmark = pytest.mark.serving


def result_facts(results):
    return [(r.columns, r.rows, r.server_latency_ms, r.client_latency_ms,
             r.snapshot) for r in results]


def test_same_plan_shares_one_backing_query():
    bench, serving = build_serving()
    text = window_query(bench)
    first = serving.register("alpha", text)
    # A different registration name over the identical plan must share:
    # the sharing key is the normalized AST + window spec, name excluded.
    renamed = text.replace("QUERY L1 AS", "QUERY L1_ALT AS")
    second = serving.register("beta", renamed)
    assert serving.registry.num_shared == 1
    assert serving.registry.num_subscribers == 2
    assert (serving.registry.shared_misses,
            serving.registry.shared_hits) == (1, 1)
    assert first.shared_name == second.shared_name
    assert first.num_cosubscribers == 2
    assert len(serving.engine.continuous.queries) == 1


def test_distinct_plans_get_distinct_backing_queries():
    bench, serving = build_serving()
    serving.register("alpha", window_query(bench, "L1"))
    serving.register("alpha", window_query(bench, "L2"))
    serving.register("alpha", window_query(bench, "L1", step_ms=400))
    assert serving.registry.num_shared == 3
    assert serving.registry.shared_hits == 0


def test_fanout_delivers_identical_results_to_every_subscriber():
    bench, serving = build_serving()
    text = window_query(bench)
    subs = [serving.register(f"tenant{i}", text) for i in range(3)]
    serving.run_until(1_000)
    polled = [result_facts(sub.poll()) for sub in subs]
    assert polled[0], "the window must have closed at least once"
    assert polled[1] == polled[0] and polled[2] == polled[0]
    closes = len(subs[0].entry.handle.executions)
    assert serving.closes_evaluated == closes
    assert serving.results_delivered == closes * 3
    assert serving.executions_saved == closes * 2
    # Nothing left after the fan-out is consumed.
    assert all(sub.poll() == [] for sub in subs)


def test_late_subscriber_sees_only_future_closes():
    bench, serving = build_serving()
    text = window_query(bench)
    early = serving.register("alpha", text)
    serving.run_until(600)
    already = len(early.entry.handle.executions)
    assert already > 0, "early subscriber must have seen closes"
    late = serving.register("beta", text)
    serving.run_until(1_000)
    early_results = result_facts(early.poll())
    late_results = result_facts(late.poll())
    assert len(early_results) == already + len(late_results)
    assert early_results[already:] == late_results


def test_backing_query_dies_with_its_last_subscriber():
    bench, serving = build_serving()
    text = window_query(bench)
    first = serving.register("alpha", text)
    second = serving.register("beta", text)
    name = first.shared_name
    first.cancel()
    assert name in serving.engine.continuous.queries
    assert serving.tenants["alpha"].subscriptions == 0
    first.cancel()  # idempotent
    assert serving.registry.num_subscribers == 1
    second.cancel()
    assert serving.registry.num_shared == 0
    assert name not in serving.engine.continuous.queries
    # Capacity is actually released: the freed budget admits a newcomer.
    assert serving.register("gamma", text).num_cosubscribers == 1


def test_register_rejects_oneshot_text():
    bench, serving = build_serving()
    with pytest.raises(RegistrationError, match="submitted, not registered"):
        serving.register("alpha", bench.oneshot_query("S1"))
    assert serving.registry.num_subscribers == 0


POISON = {
    "malformed": (lambda bench: ("SELECT ?x WHERE { ?x", None), ParseError),
    "continuous": (lambda bench: (window_query(bench), None), PlanError),
    "phantom_home": (lambda bench: (bench.oneshot_query("S2"), 5),
                     StoreError),
}


@pytest.mark.parametrize("kind", sorted(POISON))
def test_poison_oneshot_is_refused_at_the_door(kind):
    """One tenant's bad one-shot is that tenant's typed error at
    ``submit``; it never reaches the tick the other tenants share."""
    make, error = POISON[kind]
    bench, serving = build_serving(num_nodes=2)
    good = bench.oneshot_query("S2")
    alice = serving.submit("alice", good)
    text, home_node = make(bench)
    with pytest.raises(error):
        serving.submit("mallory", text, home_node=home_node)
    assert serving.scheduler.backlog == 1
    assert serving.tenant("mallory").oneshots_submitted == 0
    assert serving.tenant("mallory").oneshots_rejected == 0
    bob = serving.submit("bob", good)
    before_ms = serving.engine.clock.now_ms
    served = serving.tick()
    assert [s.request for s in served] == [alice, bob]
    assert all(s.result.rows for s in served)
    assert serving.scheduler.backlog == 0
    assert serving.engine.clock.now_ms - before_ms == \
        serving.engine.config.batch_interval_ms
    assert alice.error is None and bob.error is None


def test_refusal_at_dispatch_costs_one_slot_not_the_tick():
    """What the door cannot know — here a snapshot the cluster has not
    reached — is refused by the engine when the slot comes up: the typed
    error lands on the request handle, and everyone else is served."""
    bench, serving = build_serving(num_nodes=2)
    good = bench.oneshot_query("S2")
    ahead = good.replace("WHERE", "FROM SNAPSHOT <999999> WHERE", 1)
    alice = serving.submit("alice", good)
    mallory = serving.submit("mallory", ahead)
    bob = serving.submit("bob", good)
    before_ms = serving.engine.clock.now_ms
    served = serving.tick()
    assert [s.request for s in served] == [alice, bob]
    assert isinstance(mallory.error, SnapshotNotYetStableError)
    assert alice.error is None and bob.error is None
    assert serving.tenant("mallory").oneshots_failed == 1
    assert serving.tenant("mallory").oneshots_served == 0
    assert serving.oneshots_served == 2
    assert serving.scheduler.backlog == 0
    assert serving.engine.clock.now_ms - before_ms == \
        serving.engine.config.batch_interval_ms
    # The rotation moved past all three tenants: mallory's failure spent
    # her slot like any dispatch.
    carol = serving.submit("carol", good)
    assert [s.request for s in serving.tick()] == [carol]


def test_unsaturated_oneshots_are_submillisecond():
    bench, serving = build_serving()
    serving.register("alpha", window_query(bench))
    for _ in range(8):
        serving.submit("alpha", bench.oneshot_query("S1"))
        serving.submit("beta", bench.oneshot_query("S2"))
        serving.tick()
    serving.tick()  # drain the last tick's submissions
    assert serving.oneshots_served == 16
    assert serving.scheduler.backlog == 0
    percentiles = serving.latency_percentiles("oneshot")
    # The headline serving property: with free slots, a one-shot's
    # simulated latency is the execution itself — no queueing tax.
    assert percentiles["p50_ms"] < 1.0
    assert percentiles["p99_ms"] < 1.0


def test_least_loaded_node_follows_dispatch_counters():
    bench, serving = build_serving(num_nodes=2)
    serving.run_until(500)
    load = {node.node_id: 0 for node in serving.engine.cluster.nodes}
    for dispatcher in serving.engine.dispatchers.values():
        for node_id, routed in dispatcher.tuples_routed.items():
            load[node_id] += routed
    assert sum(load.values()) > 0, "the workload must have routed tuples"
    expected = min(load, key=lambda node_id: (load[node_id], node_id))
    assert serving._least_loaded_node() == expected


def test_collect_metrics_exports_serving_counters():
    bench, serving = build_serving(num_nodes=2)
    text = window_query(bench)
    for i in range(4):
        serving.register(f"tenant{i % 2}", text)
    for _ in range(5):
        serving.submit("tenant0", bench.oneshot_query("S1"))
        serving.tick()
    serving.tick()
    registry = collect_metrics(serving.engine, proxies=serving.proxies,
                               serving=serving)
    snapshot = serving.snapshot()
    counters = registry.snapshot()["counters"]
    gauges = registry.snapshot()["gauges"]
    assert gauges["serving_subscriptions"] == snapshot.subscriptions == 4
    assert gauges["serving_shared_queries"] == snapshot.shared_queries == 1
    assert counters["serving_shared_hits"] == 3
    assert counters["serving_closes_evaluated"] == \
        snapshot.closes_evaluated
    assert counters["serving_results_delivered"] == \
        snapshot.closes_evaluated * 4
    assert counters["serving_executions_saved"] == \
        snapshot.closes_evaluated * 3
    assert counters["serving_oneshots_served"] == 5
    # Every serving registration flows through a proxy subscription.
    multiplexed = sum(p.stats.multiplexed_subscriptions
                      for p in serving.proxies.proxies)
    assert multiplexed == 4
    # Per-tenant latency histograms were pushed by the layer itself.
    histograms = serving.metrics.snapshot()["histograms"]
    assert histograms["serving_oneshot_ns{tenant=tenant0}"]["count"] == 5
    assert histograms["serving_close_ns{tenant=tenant0}"]["count"] > 0


def test_snapshot_reports_per_tenant_percentiles():
    bench, serving = build_serving(
        policy=AdmissionPolicy(oneshot_slots_per_tick=8))
    serving.register("alpha", window_query(bench))
    for _ in range(6):
        serving.submit("alpha", bench.oneshot_query("S1"))
        serving.tick()
    serving.tick()
    report = serving.snapshot().tenants["alpha"]
    assert report["subscriptions"] == 1
    assert report["oneshots_served"] == 6
    assert report["close_results"] > 0
    for kind in ("oneshot", "close"):
        for p in ("p50", "p99", "p99_9"):
            assert report[f"{kind}_{p}_ms"] > 0.0
