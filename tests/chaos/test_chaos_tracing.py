"""Recovery equivalence with the observability tracer attached.

Tracing must be neutral under faults too: a traced chaotic run still
matches the fault-free replay bit for bit, the chaos controller records a
``recover`` event span per recovery, and recovery event spans carry the
recovery meter's exact simulated cost.
"""

import pytest

from chaos.chaos_workload import NUM_NODES, STREAMS, TICKS, \
    TICKS_PER_CHECKPOINT, build_engine
from repro.chaos import FaultPlan, KillNode, random_fault_plan, \
    run_equivalence

pytestmark = pytest.mark.chaos


def build_traced_engine():
    engine = build_engine()
    engine.enable_observability()
    return engine


def test_equivalence_holds_with_tracing_enabled():
    plan = FaultPlan([KillNode(at_tick=14, node_id=0, down_ticks=3)],
                     name="traced-kill")
    report = run_equivalence(build_traced_engine, plan, TICKS)
    assert report.equivalent, \
        f"{report.summary()}\n  " + "\n  ".join(report.mismatches[:10])
    assert report.recoveries == 1


def test_recovery_event_span_carries_meter_cost():
    plan = FaultPlan([KillNode(at_tick=14, node_id=0, down_ticks=3)],
                     name="traced-kill-span")
    engine = build_traced_engine()
    from repro.chaos import ChaosController
    controller = ChaosController(plan)
    controller.attach(engine, ticks=TICKS)
    for _ in range(TICKS):
        engine.step()
    recoveries = [s for s in engine.tracer.spans
                  if s.kind == "event" and s.name == "recover"]
    assert len(recoveries) == 1
    span = recoveries[0]
    assert span.cat == "chaos"
    assert span.labels["node_id"] == 0
    assert span.ps == controller.reports[0].meter.ps
    assert span.ps > 0


def test_random_plan_equivalence_with_tracing():
    plan = random_fault_plan(7, TICKS, NUM_NODES, STREAMS,
                             ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
    report = run_equivalence(build_traced_engine, plan, TICKS)
    assert report.equivalent, "\n".join(report.mismatches[:10])
