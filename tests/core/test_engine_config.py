"""Edge cases of engine configuration and the simulation loop."""

import pytest

from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import StreamError
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

from core.test_engine import build_engine


class TestConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.num_nodes == 1
        assert config.plan_width == 1
        assert config.scalarization
        assert not config.fault_tolerance

    def test_engine_without_streams(self):
        engine = WukongSEngine(schemas=[])
        engine.load_static(parse_triples("a p b ."))
        record = engine.oneshot("SELECT ?x WHERE { a p ?x }")
        assert len(record.result.rows) == 1
        # The loop runs even with no streams to pump.
        engine.run_until(1_000)

    def test_auto_pad_keeps_vts_moving(self):
        engine = WukongSEngine(
            schemas=[StreamSchema("S")],
            config=EngineConfig(batch_interval_ms=1000))
        engine.attach_source(StreamSource(engine.schemas["S"]))
        engine.run_until(5_000)
        assert engine.coordinator.stable_vts().get("S") == 5

    def test_gc_disabled(self):
        engine = build_engine(gc_every_ticks=0)
        engine.run_until(8_000)
        assert engine.gc.stats.runs == 0

    def test_step_returns_only_new_records(self):
        engine = build_engine()
        engine.register_continuous("""
            REGISTER QUERY Q AS SELECT ?U ?T
            FROM Tweet_Stream [RANGE 2s STEP 1s]
            WHERE { GRAPH Tweet_Stream { ?U po ?T } }
        """)
        first = engine.step()
        second = engine.step()
        closes = [r.close_ms for r in first + second]
        assert closes == sorted(set(closes))

    def test_run_until_is_idempotent_at_target(self):
        engine = build_engine()
        engine.run_until(3_000)
        assert engine.run_until(3_000) == []
        assert engine.clock.now_ms == 3_000


class TestSourceIntegration:
    def test_two_sources_same_stream_rejected(self):
        engine = build_engine()
        replacement = StreamSource(engine.schemas["Tweet_Stream"])
        engine.attach_source(replacement)  # re-attach is allowed (replace)
        assert engine.sources["Tweet_Stream"] is replacement

    def test_unknown_stream_source_rejected(self):
        engine = build_engine()
        with pytest.raises(StreamError):
            engine.attach_source(StreamSource(StreamSchema("nope")))

    # -- batch geometry: batch #k of every stream spans [(k-1)*i, k*i) --
    @staticmethod
    def _geometry_engine(start_ms, interval_ms):
        """A 100 ms engine whose source cuts ten tuples (one every
        100 ms from 60 ms) into batches of ``interval_ms`` from
        ``start_ms``, under a tumbling 500 ms window."""
        engine = WukongSEngine(schemas=[StreamSchema("S")],
                               config=EngineConfig(batch_interval_ms=100))
        source = StreamSource(engine.schemas["S"])
        source.queue_tuples(parse_timed_tuples("\n".join(
            f"x{t} q y @{60 + 100 * t}" for t in range(10))),
            start_ms, interval_ms)
        engine.attach_source(source)
        query = engine.register_continuous("""
            REGISTER QUERY Q AS SELECT ?X ?Y
            FROM S [RANGE 500ms STEP 500ms]
            WHERE { GRAPH S { ?X q ?Y } }
        """)
        return engine, query

    def test_batches_on_the_engine_geometry_split_evenly(self):
        engine, query = self._geometry_engine(0, 100)
        engine.run_until(1_000)
        assert [(r.close_ms, len(r.result.rows))
                for r in query.executions] == [(500, 5), (1_000, 5)]

    def test_batches_wider_than_the_interval_rejected(self):
        # 200 ms batches read as 100 ms ones would put all ten tuples in
        # the first window and none in the second.
        engine, _ = self._geometry_engine(0, 200)
        with pytest.raises(StreamError, match="batch #1"):
            engine.run_until(1_000)

    def test_source_started_off_zero_rejected(self):
        engine, _ = self._geometry_engine(50, 100)
        with pytest.raises(StreamError, match="batch #1"):
            engine.run_until(1_000)
