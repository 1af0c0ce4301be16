"""Dedicated tests for the one-shot engine and the garbage collector."""

import pytest

from repro.core.gc import GarbageCollector
from repro.errors import PlanError
from repro.sparql.parser import parse_query

from core.test_engine import QC, build_engine, names


class TestOneShotEngine:
    def test_rejects_continuous_queries(self):
        engine = build_engine()
        with pytest.raises(PlanError, match="must be registered"):
            engine.oneshot_engine.execute(parse_query(QC))
        with pytest.raises(PlanError, match="must be registered"):
            engine.oneshot(QC)

    def test_snapshot_override(self):
        # Scalarization compacts retired snapshots into the base, so
        # historical reads need it off to be observable.
        engine = build_engine(scalarization=False)
        engine.run_until(4_000)
        query = parse_query("SELECT ?X WHERE { Logan po ?X }")
        # At snapshot 0 only the initially loaded posts are visible.
        old = engine.oneshot_engine.execute(query, snapshot=0)
        new = engine.oneshot_engine.execute(query)
        assert len(old.result.rows) < len(new.result.rows)
        assert old.snapshot == 0

    def test_compaction_folds_history_into_base(self):
        # With scalarization on, reading below the stable snapshot still
        # sees the compacted (base) data — retired snapshots are gone by
        # design (§4.3's bounded memory).
        engine = build_engine()
        engine.run_until(4_000)
        query = parse_query("SELECT ?X WHERE { Logan po ?X }")
        base = engine.oneshot_engine.execute(query, snapshot=0)
        stable = engine.oneshot_engine.execute(query)
        compacted_bound = engine.coordinator.compacted_through
        assert compacted_bound > 0
        assert len(base.result.rows) >= 2  # includes compacted stream posts

    def test_round_robin_homes(self):
        engine = build_engine()
        engine.run_until(2_000)
        first = engine.oneshot_engine._next_home
        engine.oneshot("SELECT ?X WHERE { Logan po ?X }")
        engine.oneshot("SELECT ?X WHERE { Logan po ?X }")
        assert engine.oneshot_engine._next_home == first + 2

    def test_dispatch_floor_applies(self):
        engine = build_engine()
        engine.run_until(2_000)
        record = engine.oneshot("SELECT ?X WHERE { Logan po ?X }")
        assert record.latency_ms >= \
            engine.config.cost.task_dispatch_ns / 1e6


class TestGarbageCollector:
    def test_retention_governs_unconsumed_streams(self):
        engine = build_engine(gc_every_ticks=1, gc_retention_ms=3_000)
        engine.run_until(10_000)
        # No queries registered: the retention horizon drives collection.
        floor = engine.gc.expiry_floor_batch("Tweet_Stream",
                                             engine.clock.now_ms)
        assert floor == (10_000 - 3_000) // 1_000 + 1

    def test_registered_window_blocks_collection(self):
        engine = build_engine(gc_every_ticks=1, gc_retention_ms=1_000)
        engine.register_continuous(QC)
        engine.run_until(10_000)
        registered = engine.continuous.queries["QC"]
        floor = engine.gc.expiry_floor_batch("Tweet_Stream",
                                             engine.clock.now_ms)
        window = registered.query.windows["Tweet_Stream"]
        oldest_needed_ms = registered.next_close_ms - window.range_ms
        assert floor <= oldest_needed_ms // 1_000 + 1

    def test_multiple_queries_minimum_floor_wins(self):
        engine = build_engine(gc_every_ticks=1)
        engine.register_continuous(QC)  # tweet window 10s
        engine.register_continuous("""
            REGISTER QUERY SHORT AS
            SELECT ?U ?T
            FROM Tweet_Stream [RANGE 1s STEP 1s]
            WHERE { GRAPH Tweet_Stream { ?U po ?T } }
        """)
        engine.run_until(8_000)
        floor = engine.gc.expiry_floor_batch("Tweet_Stream",
                                             engine.clock.now_ms)
        # The 10s window (QC) dominates the 1s one.
        assert floor <= (9_000 - 10_000) // 1_000 + 1 or floor == 1

    def test_stats_accumulate(self):
        engine = build_engine(gc_every_ticks=2, gc_retention_ms=2_000)
        engine.run_until(12_000)
        stats = engine.gc.stats
        assert stats.runs >= 5
        assert stats.transient_slices_freed > 0

    def test_gc_unblocks_transient_memory(self):
        engine = build_engine(gc_every_ticks=1, gc_retention_ms=2_000)
        engine.run_until(12_000)
        total = sum(t.memory_bytes()
                    for t in engine.transients["Tweet_Stream"])
        # Only ~2s of timing data is retained.
        retained = sum(t.num_slices
                       for t in engine.transients["Tweet_Stream"])
        assert retained <= 3 * 2 + 2  # per-node slices within retention
