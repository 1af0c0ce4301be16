"""Recovery equivalence: faulted + recovered == never faulted, bit for bit.

The headline invariant of the fault model (DESIGN.md §5): after every
fault in a plan has healed and the engine has caught up, query results,
injection records and the full queryable-state digest are identical to a
fault-free replay of the same 50-tick workload.  Checked here for 28
seeded random plans (covering all four fault families plus mid-batch
kills) and a handful of hand-written worst cases.
"""

import pytest

from chaos.chaos_workload import (NUM_NODES, STREAMS, TICKS,
                                  TICKS_PER_CHECKPOINT, build_engine,
                                  golden_plan)
from repro.chaos import (CorruptRecord, DelayMessage, DropMessage,
                         FaultPlan, KillNode, Straggler, engine_state_digest,
                         random_fault_plan, run_equivalence)
from repro.chaos.state import diff_digests
from repro.errors import ChaosError

pytestmark = pytest.mark.chaos

#: 28 consecutive seeds: seed % 4 cycles the fault kind, so each family
#: (kill / delay-or-drop / straggler / corrupt-then-kill) appears 7 times.
SEEDS = list(range(28))


def _check(plan: FaultPlan) -> None:
    report = run_equivalence(build_engine, plan, TICKS)
    assert report.equivalent, \
        f"{report.summary()}\n  " + "\n  ".join(report.mismatches[:10])
    # The plan must actually have fired (a vacuous pass proves nothing).
    assert report.first_fault_ms is not None, report.summary()
    assert report.events, report.summary()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plan_equivalence(seed):
    plan = random_fault_plan(seed, TICKS, NUM_NODES, STREAMS,
                             ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
    _check(plan)


def test_seed_sweep_covers_every_fault_kind():
    kinds = set()
    for seed in SEEDS:
        plan = random_fault_plan(seed, TICKS, NUM_NODES, STREAMS,
                                 ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
        kinds.update(plan.kinds)
    assert kinds == {"KillNode", "DelayMessage", "DropMessage",
                     "Straggler", "CorruptRecord"}


def test_mid_batch_kill():
    """Kill between the tick's two batch injections: the nastiest spot."""
    plan = FaultPlan([KillNode(at_tick=14, node_id=0, down_ticks=3,
                               after_batches=1)], name="mid-batch-kill")
    _check(plan)


def test_kill_during_checkpoint_tick():
    """Kill on a grid tick: the skipped checkpoint must rejoin the grid."""
    plan = FaultPlan([KillNode(at_tick=20, node_id=1, down_ticks=4)],
                     name="kill-on-grid")
    _check(plan)


def test_corrupt_then_kill_rebuilds_from_upstream():
    plan = FaultPlan([CorruptRecord(at_tick=23, node_id=1),
                      KillNode(at_tick=26, node_id=1, down_ticks=3)],
                     name="corrupt-kill")
    report = run_equivalence(build_engine, plan, TICKS)
    assert report.equivalent, "\n".join(report.mismatches[:10])
    corrupts = [e for e in report.events if e["kind"] == "corrupt"]
    assert len(corrupts) == 1
    assert any(e["kind"] == "recover" and e["detail"]["rejected"] == 1
               for e in report.events), report.events


def test_delay_and_drop_release_in_batch_order():
    """Held/lost batches re-enter in batch order even when a later batch
    was already staged as pending — the release must not overtake it."""
    for fault in (DelayMessage(stream="Tweet_Stream", batch_no=11,
                               hold_ticks=3),
                  DropMessage(stream="Like_Stream", batch_no=11,
                              detect_ticks=3)):
        _check(FaultPlan([fault], name="reorder-hazard"))


def test_straggler_perturbs_meters_only():
    plan = FaultPlan([Straggler(at_tick=10, node_id=0, factor=3.0,
                                duration_ticks=6)], name="straggle")
    report = run_equivalence(build_engine, plan, TICKS)
    assert report.equivalent, "\n".join(report.mismatches[:10])
    # A straggler degrades nothing: no gaps, no recoveries.
    assert report.gaps == [] and report.recoveries == 0


def test_golden_plan_is_equivalent():
    """The multi-fault plan behind the golden file also holds."""
    _check(golden_plan())


def test_recovered_shard_reads_at_the_frontier():
    """A shard rebuilt by recovery reads as the lost one did at once, not
    only after the next compaction: node 1 crashes and recovers at the
    same instant, and every key's version read — and at 3 000 ms the
    whole state digest — equals the never-faulted run's."""
    for now_ms in (1_500, 3_000):
        healthy, healed = build_engine(), build_engine()
        healthy.run_until(now_ms)
        healed.run_until(now_ms)
        healed.crash_node(1)
        healed.recover_node(1)
        assert healed.coordinator.compacted_through > 0
        rebuilt, kept = healed.store.shards[1], healthy.store.shards[1]
        keys = sorted(kept.iter_keys())
        assert sorted(rebuilt.iter_keys()) == keys
        assert [rebuilt.lookup_versions(key) for key in keys] == \
            [kept.lookup_versions(key) for key in keys]
    assert diff_digests(engine_state_digest(healed),
                        engine_state_digest(healthy)) == []


def test_gaps_are_noted_and_resolved_for_kills():
    plan = FaultPlan([KillNode(at_tick=12, node_id=0, down_ticks=5)],
                     name="gap-accounting")
    report = run_equivalence(build_engine, plan, TICKS)
    assert report.equivalent, "\n".join(report.mismatches[:10])
    assert report.gaps, "a 5-tick outage must miss at least one close"
    for gap in report.gaps:
        assert gap["resolved_ms"] is not None
        assert gap["resolved_ms"] >= gap["noted_ms"] >= gap["close_ms"]


class TestPlanValidation:
    def test_overlapping_kills_rejected(self):
        plan = FaultPlan([KillNode(at_tick=10, node_id=0, down_ticks=5),
                          KillNode(at_tick=12, node_id=1, down_ticks=5)])
        with pytest.raises(ChaosError, match="overlapping kills"):
            plan.validate(NUM_NODES, STREAMS, TICKS)

    def test_corrupt_without_kill_rejected(self):
        plan = FaultPlan([CorruptRecord(at_tick=15, node_id=0)])
        with pytest.raises(ChaosError, match="needs a later kill"):
            plan.validate(NUM_NODES, STREAMS, TICKS)

    def test_corrupt_crossing_checkpoint_window_rejected(self):
        plan = FaultPlan([CorruptRecord(at_tick=18, node_id=0),
                          KillNode(at_tick=25, node_id=0, down_ticks=3)])
        with pytest.raises(ChaosError, match="checkpoint window"):
            plan.validate(NUM_NODES, STREAMS, TICKS)

    def test_unknown_stream_rejected(self):
        plan = FaultPlan([DelayMessage(stream="No_Stream", batch_no=5,
                                       hold_ticks=1)])
        with pytest.raises(ChaosError, match="unknown stream"):
            plan.validate(NUM_NODES, STREAMS, TICKS)

    def test_kill_healing_too_late_rejected(self):
        plan = FaultPlan([KillNode(at_tick=TICKS - 3, node_id=0,
                                   down_ticks=4)])
        with pytest.raises(ChaosError, match="heal before the run ends"):
            plan.validate(NUM_NODES, STREAMS, TICKS)

    def test_kill_requires_fault_tolerance(self):
        from repro.chaos import ChaosController
        from repro.core.engine import EngineConfig, WukongSEngine
        from repro.streams.stream import StreamSchema
        engine = WukongSEngine(
            schemas=[StreamSchema("Tweet_Stream")],
            config=EngineConfig(num_nodes=2, fault_tolerance=False))
        plan = FaultPlan([KillNode(at_tick=10, node_id=0, down_ticks=2)])
        with pytest.raises(ChaosError, match="fault_tolerance"):
            ChaosController(plan).attach(engine, ticks=TICKS)
