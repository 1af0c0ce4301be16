"""Metrics registry semantics and the histograms the engine pushes."""

from repro.core.engine import EngineConfig, WukongSEngine
from repro.obs.metrics import MetricsRegistry
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("hits").inc()
    registry.counter("hits").inc(3)
    registry.gauge("entries", node=1).set(42)
    hist = registry.histogram("latency_ns")
    for ns in (500.0, 5_000.0, 2e6):
        hist.observe(ns)

    snap = registry.snapshot()
    assert snap["counters"]["hits"] == 4
    assert snap["gauges"]["entries{node=1}"] == 42
    record = snap["histograms"]["latency_ns"]
    assert record["count"] == 3
    assert record["total_ns"] == 500.0 + 5_000.0 + 2e6
    # 500 -> bucket <=1e3; 5e3 -> <=1e4; 2e6 -> <=1e7.
    assert record["counts"][0] == 1
    assert record["counts"][1] == 1
    assert record["counts"][4] == 1


def test_label_keys_are_order_insensitive():
    registry = MetricsRegistry()
    registry.counter("c", b=2, a=1).inc()
    registry.counter("c", a=1, b=2).inc()
    assert registry.snapshot()["counters"] == {"c{a=1,b=2}": 2}


def test_render_lists_every_metric():
    registry = MetricsRegistry()
    registry.counter("hits").inc(7)
    registry.gauge("depth").set(2.5)
    registry.histogram("lat_ns").observe(1e6)
    text = registry.render()
    assert "hits 7" in text
    assert "depth 2.5" in text
    assert "lat_ns count=1" in text


def test_engine_pushes_latency_histograms_when_attached():
    config = EngineConfig(num_nodes=2, batch_interval_ms=100, tracing=True)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples("a fo b ."))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples("a po p1 @10\na po p2 @110"),
                        0, 100)
    engine.attach_source(source)
    for _ in range(3):
        engine.step()
    engine.oneshot("SELECT ?X WHERE { a fo ?X }")

    snap = engine.metrics.snapshot()
    assert snap["histograms"]["oneshot_ns"]["count"] == 1
    assert snap["histograms"]["injection_ns{stream=S}"]["count"] >= 2
