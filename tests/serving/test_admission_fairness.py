"""Admission budgets reject loudly; the fair scheduler protects tenants.

Two guarantees under saturation:

* Every refusal is a typed :class:`~repro.errors.AdmissionError`
  subclass carrying the tenant and the exhausted budget — the engine and
  the queues are left exactly as they were (no half-admitted work).
* A tenant flooding its own queue lengthens only its own latency: in any
  tick where a well-behaved tenant has work queued it receives its
  ``floor(slots / active tenants)`` share, so its p99 stays at the
  execution latency (sub-millisecond on the simulated clock) while the
  flooder's p99 climbs into tick multiples.
"""

import pytest

from repro.errors import (AdmissionError, BacklogAdmissionError,
                          RegistrationAdmissionError)
from repro.serving import AdmissionPolicy, FairScheduler, OneshotRequest
from serving.serving_workload import build_serving, window_query

pytestmark = pytest.mark.serving


def test_subscription_budget_rejects_with_context():
    bench, serving = build_serving(
        policy=AdmissionPolicy(max_subscriptions=2))
    text = window_query(bench)
    serving.register("alpha", text)
    serving.register("beta", text)
    before = len(serving.engine.continuous.queries)
    with pytest.raises(RegistrationAdmissionError) as excinfo:
        serving.register("gamma", text)
    error = excinfo.value
    assert isinstance(error, AdmissionError)
    assert (error.tenant, error.budget, error.in_use) == ("gamma", 2, 2)
    # The refusal left no trace: no subscription, no backing query.
    assert serving.registry.num_subscribers == 2
    assert len(serving.engine.continuous.queries) == before
    assert serving.snapshot().registrations_rejected == 1


def test_per_tenant_subscription_budget_spares_other_tenants():
    bench, serving = build_serving(
        policy=AdmissionPolicy(max_tenant_subscriptions=1))
    text = window_query(bench)
    serving.register("alpha", text)
    with pytest.raises(RegistrationAdmissionError, match="per-tenant"):
        serving.register("alpha", text)
    # The budget is per tenant: a different tenant is still admitted.
    serving.register("beta", text)
    assert serving.registry.num_subscribers == 2
    assert serving.tenants["alpha"].registrations_rejected == 1


def test_shared_plan_budget_never_charges_dedup_hits():
    bench, serving = build_serving(
        policy=AdmissionPolicy(max_shared_queries=1))
    serving.register("alpha", window_query(bench, "L1"))
    # A dedup hit re-uses the existing backing query: admitted even
    # though the shared budget is exhausted.
    serving.register("beta", window_query(bench, "L1"))
    with pytest.raises(RegistrationAdmissionError, match="shared-plan"):
        serving.register("beta", window_query(bench, "L2"))
    assert serving.registry.num_shared == 1
    assert serving.registry.num_subscribers == 2


def test_backlog_budgets_reject_without_enqueueing():
    bench, serving = build_serving(
        policy=AdmissionPolicy(max_backlog=3, max_tenant_backlog=1))
    query = bench.oneshot_query("S1")
    serving.submit("alpha", query)
    with pytest.raises(BacklogAdmissionError) as excinfo:
        serving.submit("alpha", query)
    assert (excinfo.value.tenant, excinfo.value.budget) == ("alpha", 1)
    assert serving.scheduler.backlog == 1, "rejection must not enqueue"
    serving.submit("beta", query)
    serving.submit("gamma", query)
    # Total backlog budget, hit by a tenant with per-tenant headroom.
    with pytest.raises(BacklogAdmissionError, match="backlog full"):
        serving.submit("delta", query)
    assert serving.scheduler.backlog == 3
    assert serving.snapshot().oneshots_rejected == 2


def test_fair_scheduler_divides_slots_and_rotates():
    scheduler = FairScheduler(slots_per_tick=4)
    for tenant, count in (("a", 5), ("b", 5), ("c", 5)):
        for _ in range(count):
            scheduler.enqueue(OneshotRequest(tenant=tenant, text="q",
                                             arrival_ms=0))
    dispatched = []
    execute = lambda request, now_ms: dispatched.append(request.tenant)

    scheduler.drain(0, lambda r, now: execute(r, now))
    # floor(4 / 3) = 1 slot guaranteed each; the spare slot goes to the
    # ring head, and the cursor rotates past the last tenant visited.
    assert sorted(dispatched) == ["a", "a", "b", "c"]
    dispatched.clear()
    scheduler.drain(0, lambda r, now: execute(r, now))
    assert sorted(dispatched) == ["a", "b", "b", "c"]
    dispatched.clear()
    scheduler.drain(0, lambda r, now: execute(r, now))
    assert sorted(dispatched) == ["a", "b", "c", "c"]
    # Empty queues are skipped without consuming slots.
    dispatched.clear()
    scheduler.drain(0, lambda r, now: execute(r, now))
    assert sorted(dispatched) == ["a", "b", "c"]
    assert scheduler.backlog == 0


def test_saturating_tenant_cannot_starve_others():
    bench, serving = build_serving(
        policy=AdmissionPolicy(oneshot_slots_per_tick=4,
                               max_tenant_backlog=512))
    flood_query = bench.oneshot_query("S1")
    polite_query = bench.oneshot_query("S2")
    per_tick = {}
    for _ in range(20):
        for _ in range(12):  # 3x the entire serving capacity, every tick
            serving.submit("flood", flood_query)
        serving.submit("alpha", polite_query)
        serving.submit("beta", polite_query)
        served = serving.tick()
        for done in served:
            per_tick.setdefault(done.request.tenant, []).append(done)
    # Every tick dispatches exactly one alpha and one beta request — the
    # floor(4/3) guarantee — and the flooder gets the two spare slots.
    assert len(per_tick["alpha"]) == 20
    assert len(per_tick["beta"]) == 20
    assert len(per_tick["flood"]) == 2 * 20
    # The polite tenants never wait: their p99 is the execution latency.
    report = serving.snapshot().tenants
    assert report["alpha"]["oneshot_p99_ms"] < 1.0
    assert report["beta"]["oneshot_p99_ms"] < 1.0
    # The flooder queues behind itself, ticks deep — and only itself.
    assert report["flood"]["oneshot_p99_ms"] > 100.0
    assert all(done.queue_wait_ms == 0.0
               for done in per_tick["alpha"] + per_tick["beta"])
    assert serving.scheduler.tenant_backlog("flood") > 0
    assert serving.scheduler.tenant_backlog("alpha") == 0
