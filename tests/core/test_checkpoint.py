"""Tests for fault tolerance: logging, checkpoints, crash recovery."""

import pytest

from repro.chaos.state import engine_state_digest
from repro.core.checkpoint import CheckpointManager
from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import FaultToleranceError, StoreError, StreamError
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema
from streams.helpers import timed

from core.test_engine import QC, build_engine, names


def ft_engine(**overrides):
    overrides.setdefault("fault_tolerance", True)
    overrides.setdefault("checkpoint_interval_ms", 2_000)
    return build_engine(**overrides)


class TestLogging:
    def test_batches_are_logged(self):
        engine = ft_engine()
        engine.run_until(3_000)
        assert engine.checkpoints is not None
        assert engine.checkpoints.logged_for_node(0)
        assert engine.checkpoints.logged_for_node(1)

    def test_logging_adds_delay(self):
        plain = build_engine()
        logged = ft_engine()
        plain.run_until(4_000)
        logged.run_until(4_000)
        pick = lambda eng: [r.total_ms for r in eng.injection_records
                            if r.stream == "Tweet_Stream" and r.num_tuples]
        assert sum(pick(logged)) > sum(pick(plain))
        assert logged.checkpoints.mean_logging_delay_ms() > 0


class TestBase:
    def test_load_static_keeps_base_columns(self):
        engine = ft_engine()
        base = engine.checkpoints.base
        assert len(base) == 11  # X-Lab's triples, as loaded
        assert base.ts == [0] * 11
        assert engine.strings.entity_name(base.s[0]) == "Logan"

    def test_load_after_stream_refused_whole(self):
        """Static data loads before any stream batch enters.  A late
        base write would sit below stream entries: here shard 0 would
        take x's in-edge before shard 1 refused the base entry behind
        q's stream entry.  The refusal comes first: nothing is encoded,
        written or kept for recovery."""
        engine = WukongSEngine(
            schemas=[StreamSchema("S")],
            config=EngineConfig(num_nodes=2, batch_interval_ms=1000,
                                fault_tolerance=True))
        source = StreamSource(engine.schemas["S"])
        source.queue_tuples(parse_timed_tuples("q p r @1500"), 0, 1000)
        engine.attach_source(source)
        engine.run_until(2_000)
        before = engine_state_digest(engine)
        with pytest.raises(StoreError, match="before any stream batch"):
            engine.load_static(parse_triples("n p n .\nq p x ."))
        assert engine_state_digest(engine) == before
        assert engine.strings.lookup_entity("n") is None
        assert len(engine.checkpoints.base) == 0


class TestUpstreamBackup:
    """A source keeps a batch only while something could replay it."""

    @staticmethod
    def run_500_ticks(fault_tolerance):
        """Backup size after each of 500 ticks of one 500-batch stream."""
        engine = WukongSEngine(
            schemas=[StreamSchema("S")],
            config=EngineConfig(num_nodes=2, fault_tolerance=fault_tolerance,
                                checkpoint_interval_ms=2_000))
        source = StreamSource(engine.schemas["S"])
        assert source.queue_tuples(
            timed((f"u{i % 7}", "po", f"t{i}", 10 * i)
                  for i in range(5_000)), 0, 100) == 500
        engine.attach_source(source)
        sizes = []
        for _ in range(500):
            engine.step()
            sizes.append(source.backup_size)
        assert engine._last_delivered["S"] == 500
        return engine, source, sizes

    def test_without_a_log_each_injected_batch_is_acked(self):
        engine, source, sizes = self.run_500_ticks(fault_tolerance=False)
        # At most the one batch delivered ahead of its close is held.
        assert max(sizes) == 1
        assert source.acked_through == 500
        with pytest.raises(StreamError, match="acknowledged and trimmed"):
            source.replay(499)

    def test_with_a_log_only_checkpoints_ack(self):
        engine, source, sizes = self.run_500_ticks(fault_tolerance=True)
        # Between two checkpoints (20 ticks) the backup grows by one
        # batch a tick, then drops to what the checkpoint left.
        assert max(sizes) == 20
        assert sizes[:19] == list(range(2, 21))
        assert source.acked_through == \
            engine.checkpoints.latest_marker.stable_vts["S"]


class TestCheckpoints:
    def test_periodic_checkpoints_happen(self):
        engine = ft_engine()
        engine.run_until(8_000)
        assert engine.checkpoints.num_checkpoints >= 2
        marker = engine.checkpoints.latest_marker
        assert marker.stable_vts["Tweet_Stream"] > 0

    def test_checkpoints_ack_sources(self):
        engine = ft_engine()
        before = engine.sources["Tweet_Stream"].backup_size
        engine.run_until(8_000)
        # Acked batches were trimmed from the upstream-backup buffer.
        source = engine.sources["Tweet_Stream"]
        marker = engine.checkpoints.latest_marker
        assert all(b.batch_no > marker.stable_vts["Tweet_Stream"]
                   for b in source.replay(marker.stable_vts["Tweet_Stream"]))

    def test_interval_must_be_positive(self):
        with pytest.raises(FaultToleranceError):
            CheckpointManager(interval_ms=0)


class TestRecovery:
    def test_recovered_node_answers_identically(self):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(7_000)
        probe = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"
        before = names(engine, engine.oneshot(probe, home_node=0).result.rows)

        engine.crash_node(1)
        engine.recover_node(1)
        after = names(engine, engine.oneshot(probe, home_node=0).result.rows)
        assert after == before == [("T-13",), ("T-15",)]

    def test_recovery_restores_every_shard_key(self):
        engine = ft_engine()
        engine.run_until(6_000)
        shard = engine.store.shards[1]
        keys_before = {key: shard.lookup_versions(key)
                       for key in shard.iter_keys()}

        engine.crash_node(1)
        assert engine.store.shards[1].num_keys == 0
        engine.recover_node(1)
        shard = engine.store.shards[1]
        keys_after = {key: shard.lookup_versions(key)
                      for key in shard.iter_keys()}
        assert keys_after == keys_before

    def test_recovery_preserves_stream_index_spans(self):
        engine = ft_engine()
        registered = engine.register_continuous(QC)
        engine.run_until(7_000)
        record_before = engine.continuous.execute_once(registered, 7_000)
        before = names(engine, record_before.result.rows)

        engine.crash_node(0)
        engine.recover_node(0)
        record_after = engine.continuous.execute_once(registered, 7_000)
        assert names(engine, record_after.result.rows) == before

    def test_continuous_processing_continues_after_recovery(self):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        engine.crash_node(1)
        engine.recover_node(1)
        records = engine.run_until(10_000)
        latest = {rec.close_ms: names(engine, rec.result.rows)
                  for rec in records}
        assert ("Logan", "Erik", "T-15") in latest[10_000]

    def test_recover_live_node_rejected(self):
        engine = ft_engine()
        engine.run_until(2_000)
        with pytest.raises(FaultToleranceError):
            engine.recover_node(0)

    def test_recover_without_ft_rejected(self):
        engine = build_engine()
        engine.run_until(2_000)
        engine.crash_node(0)
        with pytest.raises(StreamError):
            engine.recover_node(0)
