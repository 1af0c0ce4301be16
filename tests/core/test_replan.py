"""Adaptive re-planning (``repro.core.replan``): the tentpole guarantees.

* **Swap-on-skew**: a skew-inversion workload (the hot predicate flips
  mid-run) makes the cold registration-time plan wrong; the monitor
  re-plans it once the statistics prove a >= hysteresis improvement.
* **Differential bit-identity**: every close executed *after* the swap is
  bit-identical (rows, simulated ns, per-category breakdown) to the same
  close of a twin engine registered with the final order from the start,
  pre-swap closes agree as multisets, and the engines' full state digests
  are equal — planning never touches store state.
* **Hysteresis / cool-down**: oscillating statistics trigger at most one
  re-plan per cool-down window; sub-threshold improvements never swap.
* **Pinning**: ``fixed_order`` registrations are exempt forever — that is
  what keeps golden workloads valid on adaptive engines.
"""

from __future__ import annotations

import pytest

from repro.chaos.state import engine_state_digest
from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.pipeline import CACHE_CAPACITY
from repro.core.replan import COOLDOWN_CLOSES, HYSTERESIS, PlanMonitor
from repro.core.stats import PredicateStatistics, StatsSnapshot
from repro.rdf.parser import parse_timed_tuples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

pytestmark = pytest.mark.adaptive

#: Ticks of light-pa / heavy-pb traffic, then the skew inverts.
PHASE1_TICKS = 10
TOTAL_TICKS = 40

QUERY = """
    REGISTER QUERY SKEW AS
    SELECT ?U ?L
    FROM A [RANGE 300ms STEP 100ms]
    FROM B [RANGE 300ms STEP 100ms]
    WHERE {
        GRAPH A { ?U pa ?P }
        GRAPH B { ?L pb ?P }
    }
"""


def _skew_tuples():
    """Two streams whose hot predicate inverts after PHASE1_TICKS.

    Most objects are unique (so join fan-outs stay ~1 and the cost
    comparison is dominated by the index-start size), plus one shared hot
    id per tick so every close joins a few rows.
    """
    pa, pb = [], []
    na = nb = 0
    for tick in range(1, TOTAL_TICKS + 1):
        at = 100 * (tick - 1) + 10
        pa_rate, pb_rate = (1, 12) if tick <= PHASE1_TICKS else (12, 1)
        # Shared hot ids first (timestamps must be non-decreasing):
        # both windows always hold h{tick % 3}.
        pa.append(f"ax{tick} pa h{tick % 3} @{at}")
        pb.append(f"bx{tick} pb h{tick % 3} @{at}")
        for i in range(pa_rate):
            pa.append(f"a{na} pa p{na} @{at + 1 + i}")
            na += 1
        for i in range(pb_rate):
            pb.append(f"b{nb} pb q{nb} @{at + 1 + i}")
            nb += 1
    return "\n".join(pa), "\n".join(pb)


def _build(adaptive: bool, fixed_order=None, **config_kwargs):
    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          adaptive_replan=adaptive,
                          replan_check_closes=4,
                          **config_kwargs)
    engine = WukongSEngine(
        schemas=[StreamSchema("A"), StreamSchema("B")], config=config)
    pa_text, pb_text = _skew_tuples()
    for name, text in (("A", pa_text), ("B", pb_text)):
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(parse_timed_tuples(text), 0, 100)
        engine.attach_source(source)
    handle = engine.register_continuous(QUERY, fixed_order=fixed_order)
    return engine, handle


def _run(engine, ticks=TOTAL_TICKS):
    for _ in range(ticks):
        engine.step()


# -- swap-on-skew --------------------------------------------------------

def test_skew_inversion_triggers_replan():
    engine, handle = _build(adaptive=True)
    assert handle.plan_order == (0, 1)  # cold positional plan starts at pa
    _run(engine)
    assert len(handle.replans) >= 1
    assert handle.plan_order == (1, 0)  # now starts at the light pb index
    event = handle.replans[0]
    assert event.old_order == (0, 1) and event.new_order == (1, 0)
    assert event.estimated_improvement >= HYSTERESIS
    # The decision is stamped with the snapshot epoch it was made under.
    stats = PredicateStatistics(engine.store)
    assert 0 < event.stats_epoch <= stats.epoch()


def test_replan_disabled_by_default():
    engine, handle = _build(adaptive=False)
    assert engine.plan_monitor is None
    _run(engine)
    assert handle.replans == []
    assert handle.plan_order == (0, 1)


# -- differential bit-identity -------------------------------------------

def test_post_swap_closes_bit_identical_to_fixed_order_run():
    adaptive_engine, adaptive_handle = _build(adaptive=True)
    _run(adaptive_engine)
    assert adaptive_handle.replans, "workload must actually re-plan"
    final_order = list(adaptive_handle.plan_order)
    swap_close = adaptive_handle.replans[-1].close_index

    fixed_engine, fixed_handle = _build(adaptive=False,
                                        fixed_order=final_order)
    _run(fixed_engine)

    adaptive_execs = adaptive_handle.executions
    fixed_execs = fixed_handle.executions
    assert len(adaptive_execs) == len(fixed_execs)
    assert [r.close_ms for r in adaptive_execs] == \
        [r.close_ms for r in fixed_execs]
    for i, (ours, theirs) in enumerate(zip(adaptive_execs, fixed_execs)):
        if i >= swap_close:
            # Bit-identical: same plan, same window data, same stable SN.
            assert ours.result.rows == theirs.result.rows
            assert ours.meter.ns == theirs.meter.ns
            assert ours.meter.breakdown_ms == theirs.meter.breakdown_ms
        else:
            # Different plan order may permute rows, never change them.
            assert sorted(ours.result.rows) == sorted(theirs.result.rows)
    # Planning never touches store/stream/injection state.
    assert engine_state_digest(adaptive_engine) == \
        engine_state_digest(fixed_engine)


# -- hysteresis and cool-down --------------------------------------------

class _ScriptedStats:
    """A statistics provider whose index sizes are scripted per call."""

    def __init__(self, sizes_for_call):
        self.calls = 0
        self._sizes_for_call = sizes_for_call

    def snapshot(self, patterns):
        self.calls += 1
        sizes = self._sizes_for_call(self.calls)
        return StatsSnapshot(
            epoch=self.calls,
            out_degrees={p: 1.0 for p in sizes},
            in_degrees={p: 1.0 for p in sizes},
            index_sizes=dict(sizes),
            subject_degrees={}, object_degrees={})


def test_oscillating_stats_swap_at_most_once_per_cooldown():
    # Every check sees the skew inverted vs the current plan, so without
    # the cool-down the plan would thrash on every single check.
    engine, handle = _build(adaptive=True)
    engine.config.replan_check_closes = 1
    monitor = engine.plan_monitor
    monitor.check_every_closes = 1

    def flip(call):
        heavy = {"pa": 1000.0, "pb": 10.0}
        light = {"pa": 10.0, "pb": 1000.0}
        return heavy if call % 2 else light

    monitor.statistics = _ScriptedStats(flip)
    _run(engine)
    events = handle.replans
    assert len(events) >= 2, "oscillation must still re-plan eventually"
    for before, after in zip(events, events[1:]):
        assert after.close_index - before.close_index >= COOLDOWN_CLOSES
    # Every suppressed oscillation is visible, not silent.
    assert monitor.skipped_cooldown > 0


def test_sub_threshold_improvement_never_swaps():
    engine, handle = _build(adaptive=True)
    monitor = engine.plan_monitor
    # Candidate (start at pb) differs but is only ~1.2x better.
    monitor.statistics = _ScriptedStats(
        lambda call: {"pa": 12.0, "pb": 10.0})
    _run(engine)
    assert handle.replans == []
    assert handle.plan_order == (0, 1)
    assert monitor.skipped_hysteresis > 0
    assert monitor.replans == 0


def test_identical_candidate_is_not_a_skip():
    engine, handle = _build(adaptive=True)
    monitor = engine.plan_monitor
    # Stats agree with the current order: pa is the smaller index.
    monitor.statistics = _ScriptedStats(
        lambda call: {"pa": 10.0, "pb": 1000.0})
    _run(engine)
    assert handle.replans == []
    assert monitor.checks > 0
    assert monitor.skipped_hysteresis == 0
    assert monitor.skipped_cooldown == 0


# -- pinning --------------------------------------------------------------

def test_fixed_order_pins_query_against_replanning():
    engine, handle = _build(adaptive=True, fixed_order=[0, 1])
    monitor = engine.plan_monitor
    monitor.statistics = _ScriptedStats(
        lambda call: {"pa": 1000.0, "pb": 1.0})
    _run(engine)
    assert handle.pinned
    assert handle.replans == []
    assert handle.plan_order == (0, 1)
    assert monitor.checks == 0  # pinned queries are never even examined


def test_pinned_run_matches_unpinned_cold_run_bit_identically():
    # Pinning the cold order on an adaptive-off engine is a no-op: that
    # is what keeps the goldens valid without regenerating them.
    pinned_engine, pinned = _build(adaptive=False, fixed_order=[0, 1])
    cold_engine, cold = _build(adaptive=False)
    _run(pinned_engine)
    _run(cold_engine)
    assert [r.meter.ns for r in pinned.executions] == \
        [r.meter.ns for r in cold.executions]
    assert [r.result.rows for r in pinned.executions] == \
        [r.result.rows for r in cold.executions]


# -- determinism of the decision inputs -----------------------------------

def test_stats_snapshot_deterministic_per_epoch():
    engine, handle = _build(adaptive=False)
    _run(engine, ticks=10)
    stats = PredicateStatistics(engine.store)
    patterns = handle.query.patterns
    first = stats.snapshot(patterns)
    second = stats.snapshot(patterns)
    assert first == second
    assert first.epoch == second.epoch == stats.epoch()
    engine.step()  # more injection -> the epoch must move
    assert stats.epoch() > first.epoch
    # Snapshot accessors answer exactly like the live view they froze.
    third = stats.snapshot(patterns)
    for predicate in ("pa", "pb"):
        assert third.index_size(predicate) == stats.index_size(predicate)
        assert third.out_degree(predicate) == stats.out_degree(predicate)
        assert third.in_degree(predicate) == stats.in_degree(predicate)


def test_monitor_rejects_bad_parameters():
    engine, _ = _build(adaptive=True)
    stats = PredicateStatistics(engine.store)
    with pytest.raises(ValueError):
        PlanMonitor(engine.continuous, stats, check_every_closes=0)


# -- plan cache: swaps never serve a stale compiled executor --------------

def test_plan_cache_keyed_by_order_swaps_and_reuses():
    engine, handle = _build(adaptive=False)
    continuous = engine.continuous
    pipeline = engine.pipeline
    original_plan = handle.plan
    misses_before = pipeline.plan_misses["continuous"]

    swapped = continuous.swap_plan(handle, (1, 0))
    assert swapped is not original_plan
    assert [s.kind for s in swapped.steps] != \
        [s.kind for s in original_plan.steps] or \
        [s.pattern for s in swapped.steps] != \
        [s.pattern for s in original_plan.steps]
    assert pipeline.plan_misses["continuous"] == misses_before + 1
    # The compiled form is compiled from the plan's own step order, so
    # no stale order can ever be served.
    assert [c.pattern for c in swapped.compiled.steps] == \
        [s.pattern for s in swapped.steps]
    assert handle.plan_order == (1, 0)

    # Swapping back reuses the original plan object — and with it its
    # compiled form.
    hits_before = pipeline.plan_hits["continuous"]
    compiled_before = original_plan.compiled
    back = continuous.swap_plan(handle, (0, 1))
    assert back is original_plan
    assert back.compiled is compiled_before
    assert pipeline.plan_hits["continuous"] == hits_before + 1
    assert handle.plan_order == (0, 1)


def test_cold_text_flood_never_disturbs_a_registered_query():
    """The plan cache is shared with ad-hoc traffic.  A flood of more
    used-once texts than it holds evicts a registered query's plans, but
    the query holds its plan by reference: it is swapped and keeps
    closing exactly like a twin that saw no flood."""
    quiet_engine, quiet = _build(adaptive=False)
    engine, handle = _build(adaptive=False)
    for tick in range(TOTAL_TICKS):
        if tick == TOTAL_TICKS // 2:
            quiet_engine.continuous.swap_plan(quiet, (1, 0))
            engine.continuous.swap_plan(handle, (1, 0))
        for i in range(30):
            engine.oneshot(f"SELECT ?P WHERE {{ ghost{tick}x{i} pa ?P }}")
        quiet_engine.step()
        engine.step()
    pipeline = engine.pipeline
    assert pipeline.plans.evictions > CACHE_CAPACITY
    assert len(pipeline.plans) == CACHE_CAPACITY
    assert len(handle.executions) == len(quiet.executions) > TOTAL_TICKS // 2
    assert any(r.result.rows for r in handle.executions)
    for flooded, undisturbed in zip(handle.executions, quiet.executions):
        assert flooded.close_ms == undisturbed.close_ms
        assert flooded.result.rows == undisturbed.result.rows
        assert flooded.meter.ps == undisturbed.meter.ps
    # Both of the query's plans were evicted long ago: swapping back
    # plans afresh instead of finding the registration-time plan.
    misses = pipeline.plan_misses["continuous"]
    engine.continuous.swap_plan(handle, (0, 1))
    assert pipeline.plan_misses["continuous"] == misses + 1


# -- observability ---------------------------------------------------------

def test_replan_emits_trace_span_and_counters():
    engine, handle = _build(adaptive=True, tracing=True)
    _run(engine)
    assert handle.replans
    spans = [s for s in engine.tracer.spans
             if s.name == "replan" and s.cat == "planner"]
    assert len(spans) == len(handle.replans)
    span = spans[0]
    assert span.labels["query"] == handle.name
    assert span.labels["old_order"] == "0,1"
    assert span.labels["new_order"] == "1,0"

    from repro.obs.metrics import collect_metrics
    registry = collect_metrics(engine)
    assert registry.counter("planner_replans_total").value == \
        len(handle.replans)
    assert registry.counter(
        "planner_replans", query=handle.name).value == len(handle.replans)
    assert registry.counter("planner_replan_checks").value == \
        engine.plan_monitor.checks
    # Estimated-vs-actual gauges of the active plan were published.
    assert registry.gauge("planner_estimated_cost",
                          query=handle.name).value > 0
    assert registry.gauge("planner_actual_close_ns",
                          query=handle.name).value > 0
