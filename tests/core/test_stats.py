"""Tests for the engine stats snapshot, the one pull over the counters."""

import dataclasses
import json

from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.stats import collect_stats
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

from core.test_engine import QC, build_engine


def snapshot():
    engine = build_engine()
    engine.register_continuous(QC)
    engine.run_until(6_000)
    return engine, collect_stats(engine)


def test_snapshot_covers_all_subsystems():
    engine, stats = snapshot()
    assert stats.clock_ms == 6_000
    assert stats.num_nodes == 2
    assert stats.stable_sn > 0
    assert stats.store_entries > 0
    assert stats.tuples_injected > 0
    assert stats.mean_injection_ms > 0
    assert {s.name for s in stats.streams} == {"Tweet_Stream",
                                               "Like_Stream"}


def test_stream_stats_track_delivery_and_retention():
    engine, stats = snapshot()
    tweet = next(s for s in stats.streams if s.name == "Tweet_Stream")
    assert tweet.batches_delivered == 6
    assert tweet.index_slices > 0
    assert tweet.transient_slices > 0  # 'ga' timing data
    assert tweet.index_replicas >= 1
    assert tweet.raw_bytes > 0


def test_query_stats_track_executions():
    engine, stats = snapshot()
    qc = next(q for q in stats.queries if q.name == "QC")
    assert qc.executions == 6
    assert qc.median_ms is not None and qc.median_ms > 0
    assert qc.p99_ms >= qc.median_ms
    assert qc.home_node in (0, 1)


def test_format_renders_dashboard():
    engine, stats = snapshot()
    text = stats.format()
    assert "engine @ t=6.0s" in text
    assert "stream Tweet_Stream" in text
    assert "query QC" in text
    assert "p50" in text


def test_fresh_engine_stats():
    engine = build_engine()
    stats = collect_stats(engine)
    assert stats.tuples_injected == 0
    assert stats.mean_injection_ms == 0.0
    assert stats.queries == []
    assert "no executions" not in stats.format()


def _tiny_engine(ticks=6):
    config = EngineConfig(num_nodes=2, batch_interval_ms=100)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples(
        "a fo b .\nb fo c .\nc fo a ."))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples(
        "\n".join(f"a po p{t} @{100 * t + 10}" for t in range(ticks))),
        0, 100)
    engine.attach_source(source)
    for _ in range(ticks):
        engine.step()
    return engine


def test_collect_stats_pulls_cache_counters():
    engine = _tiny_engine()
    text = "SELECT ?X WHERE { a fo ?X }"
    engine.oneshot(text)
    engine.oneshot(text)  # plan + parse cache hits
    engine.oneshot("SELECT ?X WHERE { ?X fo b }")

    stats = collect_stats(engine)
    caches = stats.caches
    assert (caches.parse_hits, caches.parse_misses) == (1, 2)
    assert (caches.plan_hits, caches.plan_misses) == (1, 2)
    assert caches.adjacency_misses > 0
    assert stats.tuples_injected > 0
    assert stats.store_entries > 0
    assert [s.name for s in stats.streams] == ["S"]
    assert stats.streams[0].index_slices > 0


def test_collect_stats_is_json_safe_and_deterministic():
    engine = _tiny_engine()
    engine.oneshot("SELECT ?X WHERE { a fo ?X }")
    first = dataclasses.asdict(collect_stats(engine))
    json.dumps(first)
    # A pull reads the owners' counters and moves none of them.
    assert dataclasses.asdict(collect_stats(engine)) == first

    other = _tiny_engine()
    other.oneshot("SELECT ?X WHERE { a fo ?X }")
    assert dataclasses.asdict(collect_stats(other)) == first
