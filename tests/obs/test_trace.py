"""Tracer unit behaviour: spans, phases, groups, nesting."""

from repro.obs.trace import ACTIVITY, BRANCH, EVENT, JOIN, PHASE, Tracer
from repro.sim.cost import LatencyMeter


def test_activity_records_meter_readings():
    tracer = Tracer()
    meter = LatencyMeter()
    act = tracer.begin("oneshot", "query", meter, anchor_ms=250)
    meter.charge(1000, category="dispatch")
    act.mark("dispatch")
    meter.charge(500, category="explore")
    act.mark("explore")
    act.end()

    root = tracer.activities("oneshot")[0]
    assert root.kind == ACTIVITY
    assert root.anchor_ms == 250
    assert root.t0 == 0 and root.t1 == meter.ps
    assert root.labels["meter_ps"] == meter.ps

    phases = [s for s in tracer.children(root.sid) if s.kind == PHASE]
    assert [p.name for p in phases] == ["dispatch", "explore"]
    assert phases[0].t0 == 0 and phases[0].t1 == 1_000_000
    assert phases[1].t0 == 1_000_000 and phases[1].t1 == 1_500_000
    # Phase spans live on the activity's root track.
    assert all(p.track == root.track for p in phases)


def test_group_marks_first_strict_maximum_critical():
    tracer = Tracer()
    meter = LatencyMeter()
    act = tracer.begin("inject", "injection", meter, anchor_ms=0)
    meter.charge(100, category="insert")
    group = act.group("insert")
    branches = []
    for ns in (300, 700, 700):  # tie: the first 700 must win
        branch = meter.spawn()
        branch.charge(ns, category="insert")
        branches.append(branch)
        group.branch(f"b{len(branches)}", branch)
    meter.join_parallel(branches)
    group.close()
    act.end()

    root = tracer.activities("inject")[0]
    joins = [s for s in tracer.children(root.sid) if s.kind == JOIN]
    assert len(joins) == 1
    assert joins[0].t0 == 100_000 and joins[0].t1 == meter.ps
    branch_spans = [s for s in tracer.children(root.sid)
                    if s.kind == BRANCH]
    assert [s.critical for s in branch_spans] == [False, True, False]
    # Each branch rides its own track; t1 is the branch meter's reading.
    assert len({s.track for s in branch_spans}) == 3
    assert [s.t1 for s in branch_spans] == [300_000, 700_000, 700_000]


def test_empty_group_records_no_join():
    tracer = Tracer()
    meter = LatencyMeter()
    act = tracer.begin("inject", "injection", meter, anchor_ms=0)
    group = act.group("insert")
    meter.join_parallel([])
    group.close()
    act.end()
    root = tracer.activities("inject")[0]
    assert [s for s in tracer.children(root.sid) if s.kind == JOIN] == []


def test_nested_activities_form_a_tree():
    tracer = Tracer()
    outer_meter = LatencyMeter()
    outer = tracer.begin("window", "continuous", outer_meter, anchor_ms=0)
    inner = tracer.begin("oneshot", "query", LatencyMeter(), anchor_ms=0)
    assert tracer.current is inner
    inner.end()
    assert tracer.current is outer
    outer.end()
    roots = tracer.activities()
    assert roots[1].parent == roots[0].sid


def test_event_span_records_completed_interval():
    tracer = Tracer()
    span = tracer.event_span("recover", "chaos", ps=12_345_678,
                             anchor_ms=4_200, node_id=1)
    assert span.kind == EVENT
    assert span.ps == 12_345_678 and span.ns == 12_345.678
    assert span.anchor_ms == 4_200
    assert span.labels == {"node_id": 1}
