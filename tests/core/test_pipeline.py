"""Tests for the Adaptor -> Dispatcher -> Injector pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptor import Adaptor
from repro.core.checkpoint import batch_checksum
from repro.core.dispatcher import Dispatcher, NodeBatch
from repro.core.injector import Injector
from repro.core.stream_index import IndexSlice
from repro.core.transient import TransientStore
from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.parser import parse_timed_tuples
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns, TimedTuple, Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.streams.stream import StreamBatch, StreamSchema

BATCH_TEXT = """
Logan po T-15 @120
T-15 ga loc1 @130
Erik li T-15 @150
"""


def make_batch():
    batch = StreamBatch("S", 2, 100, 200)
    for tup in parse_timed_tuples(BATCH_TEXT):
        batch.add(tup)
    return batch


class TestAdaptor:
    def test_classifies_timing_and_timeless(self):
        strings = StringServer()
        adaptor = Adaptor(StreamSchema("S", frozenset({"ga"})), strings)
        adapted = adaptor.adapt(make_batch())
        assert len(adapted.timeless) == 2
        assert len(adapted.timing) == 1
        assert adapted.batch_no == 2

    def test_encodes_through_string_server(self):
        strings = StringServer()
        adaptor = Adaptor(StreamSchema("S"), strings)
        adaptor.adapt(make_batch())
        assert strings.lookup_entity("Logan") is not None
        assert strings.lookup_predicate("po") is not None


class TestDispatcher:
    def test_partitions_by_owner(self):
        cluster = Cluster(num_nodes=3)
        strings = StringServer()
        adaptor = Adaptor(StreamSchema("S", frozenset({"ga"})), strings)
        adapted = adaptor.adapt(make_batch())
        dispatcher = Dispatcher(cluster, source_node=0)
        node_batches = dispatcher.dispatch(adapted)
        # Every node receives a batch (even if empty) for VTS advancement.
        assert set(node_batches) == {0, 1, 2}
        logan = strings.entity_id("Logan")
        owner = cluster.owner_of(logan)
        assert logan in node_batches[owner].out_timeless.s
        # Each tuple lands exactly once per edge half.
        total_out = sum(len(nb.out_timeless) + len(nb.out_timing)
                        for nb in node_batches.values())
        assert total_out == 3

    def test_remote_transfer_charged(self):
        cluster = Cluster(num_nodes=2)
        strings = StringServer()
        adaptor = Adaptor(StreamSchema("S"), strings)
        adapted = adaptor.adapt(make_batch())
        meter = LatencyMeter()
        Dispatcher(cluster, source_node=0).dispatch(adapted, meter=meter)
        assert meter.breakdown_ms.get("dispatch", 0) > 0


def _rows(columns):
    return list(zip(columns.s, columns.p, columns.o, columns.ts))


_NAMES = st.sampled_from([f"e{i}" for i in range(12)])


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(st.tuples(_NAMES, st.sampled_from(["po", "li", "ga"]),
                              _NAMES), max_size=40),
       num_nodes=st.sampled_from([2, 3]))
def test_dispatch_matches_per_tuple_routing(raw, num_nodes):
    """Each node's four halves hold exactly the rows a per-tuple loop
    routes there (subject owner for out, object owner for in), in
    arrival order."""
    batch = StreamBatch("S", 1, 0, 100)
    for ts, (s, p, o) in enumerate(raw):
        batch.add(TimedTuple(Triple(s, p, o), ts))
    cluster = Cluster(num_nodes=num_nodes)
    adapted = Adaptor(StreamSchema("S", frozenset({"ga"})),
                      StringServer()).adapt(batch)
    expected = {node: {"out_timeless": [], "in_timeless": [],
                       "out_timing": [], "in_timing": []}
                for node in range(num_nodes)}
    for kind, columns in (("timeless", adapted.timeless),
                          ("timing", adapted.timing)):
        for row in _rows(columns):
            s, _, o, _ = row
            expected[cluster.owner_of(s)][f"out_{kind}"].append(row)
            expected[cluster.owner_of(o)][f"in_{kind}"].append(row)
    node_batches = Dispatcher(cluster).dispatch(adapted)
    assert set(node_batches) == set(range(num_nodes))
    for node, node_batch in node_batches.items():
        assert {name: _rows(getattr(node_batch, name))
                for name in expected[node]} == expected[node]


def test_batch_checksum_is_pinned():
    """The durable-log CRC of a fixed batch, as recorded from the
    per-tuple form: the column form hashes the same bytes."""
    node_batch = NodeBatch(
        "PO", 7, 1,
        out_timeless=EncodedColumns([3, 5], [1, 2], [10, 11], [600, 640]),
        in_timeless=EncodedColumns([4], [1], [3], [610]),
        in_timing=EncodedColumns([9], [3], [21], [699]))
    assert batch_checksum(node_batch) == 990060517
    assert batch_checksum(NodeBatch("GPS", 1, 0)) == 395360831


class TestInjector:
    def build(self, num_nodes=2):
        cluster = Cluster(num_nodes=num_nodes)
        strings = StringServer()
        store = DistributedStore(cluster, strings)
        transients = {
            "S": [TransientStore("S") for _ in range(num_nodes)]
        }
        injectors = [Injector(n, store,
                              {"S": transients["S"][n]})
                     for n in range(num_nodes)]
        return cluster, strings, store, transients, injectors

    def inject_all(self, cluster, strings, injectors, sn=1,
                   index_slice=None):
        adaptor = Adaptor(StreamSchema("S", frozenset({"ga"})), strings)
        adapted = adaptor.adapt(make_batch())
        dispatcher = Dispatcher(cluster, source_node=0)
        for node_id, node_batch in dispatcher.dispatch(adapted).items():
            injectors[node_id].inject(node_batch, sn, index_slice)

    def test_timeless_reaches_persistent_store(self):
        cluster, strings, store, transients, injectors = self.build()
        self.inject_all(cluster, strings, injectors)
        logan = strings.entity_id("Logan")
        po = strings.predicate_id("po")
        values = store.neighbors_many(cluster.owner_of(logan), [logan], po,
                                      DIR_OUT, LatencyMeter())
        assert values == {logan: [strings.entity_id("T-15")]}

    def test_timing_reaches_transient_store_only(self):
        cluster, strings, store, transients, injectors = self.build()
        self.inject_all(cluster, strings, injectors)
        t15 = strings.entity_id("T-15")
        ga = strings.predicate_id("ga")
        total = sum(t.lookup(t15, ga, DIR_OUT, 1, 5)
                    != [] for t in transients["S"])
        assert total == 1
        owner = cluster.owner_of(t15)
        assert store.shards[owner].lookup(make_key(t15, ga, DIR_OUT)) == []

    def test_spans_collected_into_index_slice(self):
        cluster, strings, store, transients, injectors = self.build()
        piece = IndexSlice(2)
        self.inject_all(cluster, strings, injectors, index_slice=piece)
        # Two timeless tuples -> four spans (out+in halves), coalescing
        # aside.
        assert piece.num_entries >= 2
        logan = strings.entity_id("Logan")
        po = strings.predicate_id("po")
        assert make_key(logan, po, DIR_OUT) in piece.entries

    def test_empty_slices_keep_transient_timeline(self):
        cluster, strings, store, transients, injectors = self.build(1)
        batch = StreamBatch("S", 1, 0, 100)  # empty batch
        adaptor = Adaptor(StreamSchema("S", frozenset({"ga"})), strings)
        adapted = adaptor.adapt(batch)
        node_batch = Dispatcher(cluster).dispatch(adapted)[0]
        injectors[0].inject(node_batch, 1, None)
        assert transients["S"][0].num_slices == 1

    def test_multithreaded_injection_same_content(self):
        single = self.build(1)
        multi_cluster, m_strings, m_store, m_transients, _ = self.build(1)
        multi_injectors = [Injector(0, m_store,
                                    {"S": m_transients["S"][0]}, threads=4)]
        self.inject_all(single[0], single[1], single[4])
        self.inject_all(multi_cluster, m_strings, multi_injectors)
        s_shard, m_shard = single[2].shards[0], m_store.shards[0]
        assert {k: sorted(s_shard.lookup(k)) for k in s_shard.iter_keys()} \
            == {k: sorted(m_shard.lookup(k)) for k in m_shard.iter_keys()}

    def test_multithreaded_injection_is_faster(self):
        from repro.core.adaptor import Adaptor
        from repro.rdf.terms import TimedTuple, Triple
        from repro.streams.stream import StreamBatch

        tuples = [TimedTuple(Triple(f"u{i}", "po", f"t{i}"), 100 + i)
                  for i in range(64)]
        big = StreamBatch("S", 2, 100, 200, tuples)

        def run(threads):
            cluster, strings, store, transients, _ = self.build(1)
            injector = Injector(0, store, {"S": transients["S"][0]},
                                threads=threads)
            adapted = Adaptor(StreamSchema("S"), strings).adapt(big)
            node_batch = Dispatcher(cluster).dispatch(adapted)[0]
            meter = LatencyMeter()
            injector.inject(node_batch, 1, None, meter=meter)
            return meter.ms

        assert run(4) < run(1)

    def test_injector_threads_validated(self):
        cluster, strings, store, transients, _ = self.build(1)
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Injector(0, store, {"S": transients["S"][0]}, threads=0)

    def test_injection_respects_snapshot_tag(self):
        cluster, strings, store, transients, injectors = self.build(1)
        self.inject_all(cluster, strings, injectors, sn=7)
        logan = strings.entity_id("Logan")
        po = strings.predicate_id("po")
        shard = store.shards[0]
        assert shard.lookup(make_key(logan, po, DIR_OUT), max_sn=6) == []
        assert shard.lookup(make_key(logan, po, DIR_OUT), max_sn=7) != []
