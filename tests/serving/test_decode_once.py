"""Decode-once battery: one evaluation, one decode, N deliveries.

Subscriptions multiplexed onto one backing query share its decoded rows
(``repro.client.library.SharedDecodes``, owned by the registry entry):
the first subscriber to poll a close decodes it, the others get their
own shallow list of the same row tuples.  Everything a subscriber can
observe — rows, columns, both latencies, the ``client`` message charge —
must stay what a private registration would deliver, and the shared
state must stay bounded whatever the subscribers do.
"""

import pytest

from repro.bench.harness import build_wukongs
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.client.library import SHARED_DECODES_RETAINED
from repro.serving import ServingLayer
from serving.serving_workload import build_serving, window_query

pytestmark = pytest.mark.serving

DURATION_MS = 1_200


def facts(result):
    return (result.columns, result.rows, result.server_latency_ms,
            result.client_latency_ms, result.snapshot)


def serve(texts, copies, sharing, duration_ms=DURATION_MS):
    """``copies`` subscriptions per text over two proxies, every one
    polled every tick; returns the layer and each subscription's
    deliveries so far.  (One node: on two, private registrations are
    placed differently from the shared one and their meters differ.)"""
    bench = LSBench(LSBenchConfig.tiny())
    engine = build_wukongs(bench, num_nodes=1, duration_ms=duration_ms)
    serving = ServingLayer(engine, num_proxies=2, sharing=sharing)
    subscriptions = [serving.register(f"tenant{copy % 3}", text(bench))
                     for text in texts for copy in range(copies)]
    delivered = [[] for _ in subscriptions]
    while serving.engine.clock.now_ms < duration_ms:
        serving.tick()
        for seen, subscription in zip(delivered, subscriptions):
            seen.extend(subscription.poll())
    return serving, subscriptions, delivered


TEXTS = [lambda bench: window_query(bench, "L1", start_user=0),
         lambda bench: window_query(bench, "L2", start_user=1),
         lambda bench: window_query(bench, "L4")]


def test_each_close_decoded_once_and_deliveries_match_unshared():
    copies = 5
    shared, subs, ours = serve(TEXTS, copies, sharing=True)
    unshared, _, theirs = serve(TEXTS, copies, sharing=False)

    # Co-subscribers really are spread over both proxies.
    assert len(shared.proxies.proxies) == 2
    fronts = {id(sub._subscription.library) for sub in subs[:copies]}
    assert len(fronts) == 2

    stats = shared.snapshot()
    assert stats.closes_evaluated > 0
    assert stats.results_decoded == stats.closes_evaluated
    assert stats.decodes_shared == stats.executions_saved == \
        stats.closes_evaluated * (copies - 1)
    assert stats.rows_decoded == sum(
        len(record.result.rows) for entry in shared.registry.entries()
        for record in entry.handle.executions)
    # The private registrations decode every delivery themselves.
    private = unshared.snapshot()
    assert private.decodes_shared == 0
    assert private.results_decoded == private.results_delivered == \
        stats.results_delivered

    assert any(result.rows for seen in ours for result in seen)
    for seen, reference in zip(ours, theirs):
        assert [facts(r) for r in seen] == [facts(r) for r in reference]
    # The per-delivery client message is still charged per subscriber.
    assert shared.engine.cluster.fabric.stats.messages == \
        unshared.engine.cluster.fabric.stats.messages


def test_subscribers_own_their_row_lists():
    _, _, delivered = serve(TEXTS[:1], 3, sharing=True)
    first, second, third = (seen[-1] for seen in delivered)
    assert first.rows == second.rows == third.rows and first.rows
    assert first.rows is not second.rows
    kept = list(second.rows)
    first.rows.clear()
    third.rows.append(("mine",))
    assert second.rows == kept


def test_late_joiner_sees_only_later_closes():
    bench, serving = build_serving()
    text = window_query(bench)
    early = serving.register("alice", text)
    serving.run_until(600)
    early_results = early.poll()
    late = serving.register("bob", text)
    assert late.entry is early.entry
    before = len(early.entry.handle.executions)
    serving.run_until(1_000)
    fresh = len(early.entry.handle.executions) - before
    assert fresh > 0 and early_results
    late_results = late.poll()
    assert len(late_results) == fresh
    assert [facts(r)[:2] for r in late_results] == \
        [facts(r)[:2] for r in early.poll()]


def test_stalled_subscriber_redecodes_without_growing_the_retained_set():
    closes = 100
    step_ms = 100
    duration_ms = (closes + 2) * step_ms
    bench, serving = build_serving(duration_ms=duration_ms)
    text = window_query(bench, step_ms=step_ms)
    prompt = serving.register("alice", text)
    stalled = serving.register("bob", text)
    decodes = prompt.entry.decodes
    on_time = []
    while len(prompt.entry.handle.executions) < closes:
        serving.tick()
        on_time.extend(prompt.poll())
        assert len(decodes) <= SHARED_DECODES_RETAINED
    assert len(on_time) >= closes
    before = serving.snapshot()
    late = stalled.poll()
    after = serving.snapshot()
    assert [(r.columns, r.rows, r.server_latency_ms) for r in late] == \
        [(r.columns, r.rows, r.server_latency_ms) for r in on_time]
    # The retained few were shared, everything older decoded again, and
    # none of it was kept.
    assert len(decodes) == SHARED_DECODES_RETAINED
    assert after.decodes_shared - before.decodes_shared == \
        SHARED_DECODES_RETAINED
    assert after.results_decoded - before.results_decoded == \
        len(late) - SHARED_DECODES_RETAINED


def test_cancel_of_last_subscriber_drops_retained_rows():
    bench, serving = build_serving()
    text = window_query(bench)
    first = serving.register("alice", text)
    second = serving.register("bob", text)
    serving.run_until(800)
    assert first.poll() and second.poll()
    decodes = first.entry.decodes
    assert len(decodes) > 0
    first.cancel()
    assert len(decodes) > 0, "bob still shares them"
    second.cancel()
    assert len(decodes) == 0
    assert serving.registry.num_shared == 0


def test_shared_decode_state_bounded_by_construction():
    """256 subscriptions on 24 backing queries, polled at every cadence
    from 'each tick' to 'never until the end'."""
    bench, serving = build_serving(num_nodes=2)
    texts = [window_query(bench, "L1", start_user=u) for u in range(12)]
    texts += [window_query(bench, "L3", start_user=u, range_ms=r)
              for u in range(4) for r in (400, 600)]
    texts += [window_query(bench, t) for t in ("L2", "L4", "L5", "L6")]
    subscriptions = [serving.register(f"tenant{i % 8}",
                                      texts[i % len(texts)])
                     for i in range(256)]
    assert serving.registry.num_shared == 24
    tick = 0
    while serving.engine.clock.now_ms < DURATION_MS:
        serving.tick()
        tick += 1
        for i, subscription in enumerate(subscriptions):
            if tick % (1 + i % 5) == 0:
                subscription.poll()
        entries = serving.registry.entries()
        assert all(len(entry.decodes) <= SHARED_DECODES_RETAINED
                   for entry in entries)
    for subscription in subscriptions:
        subscription.poll()
    assert sum(len(entry.decodes) for entry in entries) <= \
        SHARED_DECODES_RETAINED * 24
    stats = serving.snapshot()
    assert stats.decodes_shared > 0
    assert stats.results_decoded + stats.decodes_shared == \
        stats.results_delivered


def test_one_shot_answers_are_not_retained():
    bench, serving = build_serving()
    serving.register("alice", window_query(bench))
    for _ in range(4):
        serving.submit("alice", bench.oneshot_query("S1"))
        serving.tick()
    stats = serving.snapshot()
    assert stats.oneshots_served == 4
    assert stats.results_decoded == 4  # nobody polled the subscription
    assert stats.decodes_shared == 0
    assert all(len(entry.decodes) == 0
               for entry in serving.registry.entries())


def test_decode_counters_exported_and_printed_side_by_side():
    serving, _, _ = serve(TEXTS[:2], 4, sharing=True)
    stats = serving.snapshot()
    assert stats.results_decoded > 0 and stats.rows_decoded > 0
    assert stats.decodes_shared > 0
    # The snapshot sums the counters each proxy keeps for itself.
    for name in ("results_decoded", "rows_decoded", "decodes_shared"):
        assert sum(getattr(p.stats, name)
                   for p in serving.proxies.proxies) == getattr(stats, name)
    line = stats.format()
    assert f"{stats.executions_saved:,} executions saved, " \
           f"{stats.decodes_shared:,} decodes saved" in line
