"""Integration tests for the Wukong+S engine (the paper's running example)."""

import pytest

from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import RegistrationError, StoreError, StreamError
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

XLAB = """
Logan ty XMen .
Erik ty XMen .
Logan fo Erik .
Erik fo Logan .
Logan po T-13 .
Logan po T-14 .
Erik po T-12 .
T-13 ht sosp17 .
T-12 ht sosp17 .
Logan li T-12 .
Erik li T-14 .
"""

TWEETS = """
Logan po T-15 @2200
T-15 ga loc31121 @2200
T-15 ht sosp17 @2250
Erik po T-16 @5100
T-16 ga loc4174 @5150
Logan po T-17 @8100
T-17 ga loc31121 @8200
"""

LIKES = """
Erik li T-15 @6100
Tony li T-15 @6200
Bruce li T-15 @6300
Clint li T-15 @9100
Steve li T-15 @9200
Erik li T-17 @9300
"""

QC = """
REGISTER QUERY QC AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
  GRAPH Like_Stream { ?Y li ?Z }
}
"""


def build_engine(num_nodes=2, **overrides):
    config = EngineConfig(num_nodes=num_nodes, batch_interval_ms=1000,
                          **overrides)
    engine = WukongSEngine(
        schemas=[StreamSchema("Tweet_Stream", frozenset({"ga"})),
                 StreamSchema("Like_Stream")],
        config=config)
    engine.load_static(parse_triples(XLAB))
    tweet = StreamSource(engine.schemas["Tweet_Stream"])
    tweet.queue_tuples(parse_timed_tuples(TWEETS), 0, 1000)
    like = StreamSource(engine.schemas["Like_Stream"])
    like.queue_tuples(parse_timed_tuples(LIKES), 0, 1000)
    engine.attach_source(tweet)
    engine.attach_source(like)
    return engine


def names(engine, rows):
    return sorted(tuple(engine.strings.entity_name(v) for v in row)
                  for row in rows)


class TestContinuousQueries:
    def test_paper_example_results(self):
        engine = build_engine()
        engine.register_continuous(QC)
        records = engine.run_until(11_000)
        by_close = {rec.close_ms: names(engine, rec.result.rows)
                    for rec in records}
        # First match once Erik's like (6100) joins Logan's tweet (2200).
        assert by_close[7000] == [("Logan", "Erik", "T-15")]
        # At 10s, Erik's like of T-17 is in both windows too.
        assert by_close[10000] == [("Logan", "Erik", "T-15"),
                                   ("Logan", "Erik", "T-17")]

    def test_windows_slide_content_out(self):
        engine = build_engine()
        engine.register_continuous(QC)
        records = engine.run_until(16_000)
        last = {rec.close_ms: names(engine, rec.result.rows)
                for rec in records}
        # By 15s, all likes are older than the 5s like-window.
        assert last[15000] == []

    def test_execution_fires_every_step(self):
        engine = build_engine()
        engine.register_continuous(QC)
        records = engine.run_until(10_000)
        closes = [rec.close_ms for rec in records]
        assert closes == sorted(closes)
        assert closes[0] == 1000  # registered at 0, step 1s
        assert all(b - a == 1000 for a, b in zip(closes, closes[1:]))

    def test_sub_millisecond_latency(self):
        engine = build_engine()
        engine.register_continuous(QC)
        records = engine.run_until(11_000)
        assert all(rec.latency_ms < 1.0 for rec in records)

    def test_registration_replicates_stream_index(self):
        engine = build_engine()
        registered = engine.register_continuous(QC)
        home = registered.home_node
        assert engine.registry.is_local("Tweet_Stream", home)
        assert engine.registry.is_local("Like_Stream", home)

    def test_unregister_drops_interest(self):
        engine = build_engine()
        registered = engine.register_continuous(QC)
        engine.continuous.unregister(registered.name)
        assert not engine.registry.is_local("Tweet_Stream",
                                            registered.home_node)
        with pytest.raises(RegistrationError):
            engine.continuous.unregister(registered.name)

    def test_oneshot_query_cannot_be_registered(self):
        engine = build_engine()
        with pytest.raises(RegistrationError):
            engine.register_continuous("SELECT ?X WHERE { Logan po ?X }")

    @pytest.mark.parametrize("home_node", [-1, 2, 5])
    def test_phantom_home_node_refused(self, home_node):
        engine = build_engine()
        with pytest.raises(StoreError, match="no such home node"):
            engine.register_continuous(QC, home_node=home_node)
        # Nothing was registered, and no phantom index replica made.
        assert engine.continuous.queries == {}
        assert engine.registry.replicas("Tweet_Stream") == set()
        assert engine.register_continuous(QC, home_node=1).home_node == 1

    def test_timing_data_reaches_transient_store_only(self):
        engine = build_engine()
        engine.run_until(4_000)
        # 'ga' (timing) tuples are in the transient store...
        total = sum(t.num_slices for t in engine.transients["Tweet_Stream"])
        assert total > 0
        # ...and never in the persistent store.
        ga = engine.strings.lookup_predicate("ga")
        t15 = engine.strings.lookup_entity("T-15")
        assert ga is not None and t15 is not None
        from repro.rdf.ids import DIR_OUT, make_key
        for shard in engine.store.shards:
            assert shard.lookup(make_key(t15, ga, DIR_OUT)) == []

    def test_timing_patterns_query_transient_store(self):
        engine = build_engine()
        engine.register_continuous("""
            REGISTER QUERY QG AS
            SELECT ?T ?L
            FROM Tweet_Stream [RANGE 10s STEP 1s]
            WHERE { GRAPH Tweet_Stream { ?T ga ?L } }
        """)
        records = engine.run_until(9_500)
        latest = records[-1]
        assert ("T-17", "loc31121") in names(engine, latest.result.rows)


class TestOneShotQueries:
    def test_sees_absorbed_timeless_data(self):
        engine = build_engine()
        engine.run_until(3_000)
        record = engine.oneshot(
            "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }")
        assert names(engine, record.result.rows) == [("T-13",), ("T-15",)]

    def test_snapshot_is_stable_not_future(self):
        engine = build_engine(plan_width=1)
        engine.run_until(3_000)
        record = engine.oneshot("SELECT ?X WHERE { Logan po ?X }")
        assert record.snapshot == engine.coordinator.stable_sn

    def test_timestamps_never_pollute_oneshot(self):
        engine = build_engine()
        engine.run_until(9_000)
        # ga (timing) data is invisible to one-shot queries entirely.
        record = engine.oneshot("SELECT ?T ?L WHERE { ?T ga ?L }")
        assert record.result.rows == []

    @pytest.mark.parametrize("home_node", [-1, 2, 5])
    def test_phantom_home_node_refused(self, home_node):
        engine = build_engine()
        query = "SELECT ?X WHERE { Logan fo ?X }"
        with pytest.raises(StoreError, match="no such home node"):
            engine.oneshot(query, home_node=home_node)
        # Logan lives on node 1: local there, two remote reads from 0.
        local = engine.oneshot(query, home_node=1)
        remote = engine.oneshot(query, home_node=0)
        assert "network" not in local.meter.breakdown_ps
        assert remote.meter.ps - local.meter.ps == \
            remote.meter.breakdown_ps["network"]

    def test_contention_marks_when_continuous_running(self):
        engine = build_engine()
        engine.run_until(2_000)
        free = engine.oneshot("SELECT ?X WHERE { Logan po ?X }",
                              home_node=0)
        engine.register_continuous(QC)
        busy = engine.oneshot("SELECT ?X WHERE { Logan po ?X }",
                              home_node=0)
        assert busy.meter.ns > free.meter.ns
        assert "contention" in busy.meter.breakdown_ms


class TestGarbageCollection:
    def test_gc_frees_expired_slices(self):
        engine = build_engine(gc_every_ticks=2)
        engine.register_continuous(QC)
        engine.run_until(20_000)
        assert engine.gc.stats.transient_slices_freed > 0
        assert engine.gc.stats.index_slices_freed > 0

    def test_gc_never_frees_live_window_data(self):
        engine = build_engine(gc_every_ticks=1)
        engine.register_continuous(QC)
        records = engine.run_until(12_000)
        # GC must never reach past the expiry floor of the next execution.
        index = engine.registry.index("Tweet_Stream")
        earliest = index.earliest_batch
        assert earliest is not None
        floor = engine.gc.expiry_floor_batch("Tweet_Stream",
                                             engine.clock.now_ms)
        assert earliest >= floor
        # Functional check: aggressive GC does not change results.  The
        # tweet T-17 (posted at 8.1s) is still inside the 10s window of
        # the execution closing at 12s and must still be found.
        latest = {rec.close_ms: names(engine, rec.result.rows)
                  for rec in records}
        assert ("Logan", "Erik", "T-17") in latest[12000]


class TestDynamicStreams:
    def test_add_stream_after_start(self):
        engine = build_engine()
        engine.run_until(2_000)
        engine.add_stream(StreamSchema("New_Stream"))
        source = StreamSource(engine.schemas["New_Stream"])
        source.queue_tuples(
            parse_timed_tuples("Zed po T-99 @2500"), 0, 1000)
        engine.attach_source(source)
        # One extra tick lets the stable snapshot catch up to the batch
        # that carries the tuple (bounded staleness, §4.3).
        engine.run_until(6_000)
        record = engine.oneshot("SELECT ?X WHERE { Zed po ?X }")
        assert names(engine, record.result.rows) == [("T-99",)]

    def test_duplicate_stream_rejected(self):
        engine = build_engine()
        with pytest.raises(StreamError):
            engine.add_stream(StreamSchema("Tweet_Stream"))

    def test_unknown_source_rejected(self):
        engine = build_engine()
        with pytest.raises(StreamError):
            engine.attach_source(StreamSource(StreamSchema("ghost")))


class TestInjectionAccounting:
    def test_injection_records_collected(self):
        engine = build_engine()
        engine.run_until(5_000)
        assert engine.injection_records
        tweets = [r for r in engine.injection_records
                  if r.stream == "Tweet_Stream" and r.num_tuples > 0]
        assert tweets
        assert all(r.total_ms > 0 for r in tweets)
        with_index = [r for r in tweets if r.indexing_ms > 0]
        assert with_index  # timeless tuples build stream-index slices

    def test_memory_accounting_nonzero(self):
        engine = build_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        assert engine.raw_stream_bytes("Tweet_Stream") > 0
        assert engine.stream_index_bytes("Tweet_Stream") > 0
        assert engine.store_memory_bytes() > 0
