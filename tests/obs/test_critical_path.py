"""Critical-path exactness on live engine traces, plus export round-trip.

The acceptance bar for the observability subsystem: for every traced
activity — in particular fork-join one-shot queries — the reconstructed
critical path must sum to the activity meter's reported picoseconds
exactly (integer equality), both on the live tracer's spans and after a
Chrome-trace export/import round trip.
"""

import pytest

from repro.core.engine import EngineConfig, WukongSEngine
from repro.obs.analysis import critical_path, render_flame
from repro.obs.export import (chrome_trace, spans_from_chrome,
                              validate_chrome_trace)
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

#: An index start (all-variable first pattern): fork-join on RDMA
#: multi-node clusters, migrate on TCP.
FORK_JOIN_QUERY = "SELECT ?X ?Y WHERE { ?X fo ?Y }"

#: A constant start: in-place execution with phase marks only.
IN_PLACE_QUERY = "SELECT ?Y WHERE { u0 fo ?Y }"

CONTINUOUS = """
    REGISTER QUERY QW AS
    SELECT ?X ?P
    FROM S [RANGE 1s STEP 500ms]
    WHERE { GRAPH S { ?X po ?P } }
"""


def build_engine(use_rdma=True, ticks=8):
    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          use_rdma=use_rdma, tracing=True)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples("\n".join(
        f"u{i} fo u{(i + 1) % 6} ." for i in range(6))))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples(
        "\n".join(f"u{t % 6} po p{t} @{100 * t + 10}"
                  for t in range(ticks))), 0, 100)
    engine.attach_source(source)
    engine.register_continuous(CONTINUOUS)
    for _ in range(ticks):
        engine.step()
    return engine


def assert_exact(spans, activity):
    path = critical_path(spans, activity)
    assert path.exact, path.problems
    assert path.total_ps == activity.labels["meter_ps"]
    return path


@pytest.mark.parametrize("use_rdma", [True, False])
def test_every_activity_reconstructs_exactly(use_rdma):
    engine = build_engine(use_rdma=use_rdma)
    records = [engine.oneshot(FORK_JOIN_QUERY),
               engine.oneshot(IN_PLACE_QUERY)]
    tracer = engine.tracer
    activities = tracer.activities()
    kinds = {a.name for a in activities}
    assert {"oneshot", "window", "inject"} <= kinds
    for activity in activities:
        assert_exact(tracer.spans, activity)
    # The oneshot activities' meter_ps match the records' meters.
    oneshots = tracer.activities("oneshot")
    for record, activity in zip(records, oneshots[-2:]):
        assert activity.labels["meter_ps"] == record.meter.ps


@pytest.mark.parametrize("use_rdma", [True, False])
def test_fork_join_path_includes_critical_branches(use_rdma):
    engine = build_engine(use_rdma=use_rdma)
    record = engine.oneshot(FORK_JOIN_QUERY)
    activity = engine.tracer.activities("oneshot")[-1]
    path = assert_exact(engine.tracer.spans, activity)
    branch_segments = [s for s in path.segments if s.kind == "branch"]
    assert branch_segments, \
        "a distributed index-start query must cross at least one join"
    assert path.total_ps == record.meter.ps


def test_injection_joins_reconstruct_exactly():
    engine = build_engine()
    injections = engine.tracer.activities("inject")
    assert injections
    for activity in injections:
        path = assert_exact(engine.tracer.spans, activity)
        assert any(s.kind == "branch" for s in path.segments)


def test_chrome_round_trip_preserves_exactness():
    engine = build_engine()
    engine.oneshot(FORK_JOIN_QUERY)
    document = chrome_trace(engine.tracer)
    assert validate_chrome_trace(document) == []

    spans = spans_from_chrome(document)
    assert len(spans) == len(engine.tracer.spans)
    by_sid = {s.sid: s for s in spans}
    for original in engine.tracer.spans:
        restored = by_sid[original.sid]
        assert restored.t0 == original.t0
        assert restored.t1 == original.t1
        assert restored.labels == original.labels
    for activity in (s for s in spans if s.kind == "activity"):
        assert_exact(spans, activity)


def test_tampered_trace_is_detected():
    engine = build_engine()
    engine.oneshot(FORK_JOIN_QUERY)
    spans = spans_from_chrome(chrome_trace(engine.tracer))
    joins = [s for s in spans if s.kind == "join"]
    assert joins
    joins[0].t1 += 1  # corrupt one reading by a single picosecond
    activity = next(s for s in spans if s.sid == joins[0].parent)
    path = critical_path(spans, activity)
    assert not path.exact


def test_flame_render_shows_phases_and_branches():
    engine = build_engine()
    engine.oneshot(FORK_JOIN_QUERY)
    activity = engine.tracer.activities("oneshot")[-1]
    text = render_flame(engine.tracer.spans, activity)
    assert "oneshot [query]" in text
    assert "phase:dispatch" in text
    assert "join:" in text and "*" in text  # a marked critical branch
