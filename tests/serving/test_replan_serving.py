"""A re-planned backing query keeps serving all its subscribers.

The sharing key is the normalized AST (``Query.cache_key``), never the
plan, and a plan swap mutates the shared ``RegisteredQuery`` in place —
so adaptive re-planning must be completely invisible to the serving
layer: no re-registration, no dropped delivery cursors, every subscriber
sees every close (pre- and post-swap) exactly once.
"""

from __future__ import annotations

import pytest

from core.test_replan import QUERY, TOTAL_TICKS, _build
from repro.serving import ServingLayer

pytestmark = pytest.mark.adaptive


def _serve_skew(tenants=("alice", "bob", "carol"), subs_per_tenant=2):
    engine, _ = _build(adaptive=True)
    # Drop the direct registration _build made; subscribers create the
    # backing query through the registry instead.
    engine.continuous.unregister("SKEW")
    serving = ServingLayer(engine)
    subscriptions = [serving.register(tenant, QUERY)
                     for tenant in tenants
                     for _ in range(subs_per_tenant)]
    for _ in range(TOTAL_TICKS):
        serving.tick()
    return serving, subscriptions


def test_replanned_backing_query_keeps_serving_all_subscribers():
    serving, subscriptions = _serve_skew()
    registry = serving.registry

    # All six subscriptions deduped onto one backing query, which the
    # skew-inversion workload re-planned mid-run.
    assert registry.num_shared == 1
    entry = registry.entries()[0]
    assert entry.handle.replans, "backing query must have re-planned"
    assert registry.total_replans == len(entry.handle.replans)
    assert serving.snapshot().replans == registry.total_replans

    # The swap kept the same handle: every subscriber still hangs off it
    # and drained the full execution stream, pre- and post-swap closes
    # alike, with identical rows per close.
    closes = len(entry.handle.executions)
    assert closes > 0
    per_subscriber = [subscription.poll()
                      for subscription in subscriptions]
    for results in per_subscriber:
        assert len(results) == closes
    reference = [sorted(r.rows) for r in per_subscriber[0]]
    for results in per_subscriber[1:]:
        assert [sorted(r.rows) for r in results] == reference
    # Fan-out accounting saw every subscriber of every close.
    assert serving.results_delivered == closes * len(subscriptions)


def test_late_subscriber_joins_replanned_query_cleanly():
    engine, _ = _build(adaptive=True)
    engine.continuous.unregister("SKEW")
    serving = ServingLayer(engine)
    early = serving.register("alice", QUERY)
    for _ in range(TOTAL_TICKS - 5):
        serving.tick()
    entry = serving.registry.entries()[0]
    assert entry.handle.replans, "swap must land before the late join"
    # A subscriber arriving *after* the swap attaches to the same entry
    # (the key is the AST, not the plan) and only sees closes from now on.
    late = serving.register("bob", QUERY)
    assert late.shared_name == early.shared_name
    before = len(entry.handle.executions)
    for _ in range(5):
        serving.tick()
    fresh = len(entry.handle.executions) - before
    assert fresh > 0
    assert len(late.poll()) == fresh
    assert len(early.poll()) == len(entry.handle.executions)


def test_shared_decode_survives_a_plan_swap():
    """Subscribers polling every tick share one decode per close; a plan
    swap in between changes no delivery (private registrations as the
    reference)."""
    def deliveries(sharing):
        engine, _ = _build(adaptive=True)
        engine.continuous.unregister("SKEW")
        serving = ServingLayer(engine, sharing=sharing)
        subscriptions = [serving.register(tenant, QUERY)
                         for tenant in ("alice", "bob", "carol")]
        seen = [[] for _ in subscriptions]
        for _ in range(TOTAL_TICKS):
            serving.tick()
            for results, subscription in zip(seen, subscriptions):
                results.extend((r.columns, r.rows)
                               for r in subscription.poll())
        return serving, seen

    shared, ours = deliveries(sharing=True)
    entry, = shared.registry.entries()
    assert entry.handle.replans, "backing query must have re-planned"
    stats = shared.snapshot()
    assert stats.results_decoded == stats.closes_evaluated
    assert stats.decodes_shared == 2 * stats.closes_evaluated
    _, theirs = deliveries(sharing=False)
    assert ours == theirs and ours[0]
