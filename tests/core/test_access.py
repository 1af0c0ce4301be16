"""Tests for WindowAccess: the continuous queries' data paths."""

import pytest

from repro.core.stream_index import (ColumnarSlice, IndexSlice,
                                     StreamIndex, StreamIndexRegistry)
from repro.core.access import WindowAccess
from repro.core.transient import TransientStore
from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.streams.stream import StreamSchema

from core.test_stream_index import RangeStore


class TestMergeSpans:
    """The span geometry a window read is charged from
    (``_KeyColumn.merged``): one slice per span, read as one window."""

    KEY = make_key(5, 2, DIR_OUT)

    def merged(self, spans):
        index = StreamIndex("S")
        for batch_no, (owner, offset, length) in enumerate(spans, 1):
            piece = IndexSlice(batch_no)
            piece.add_batch_spans(owner, [(self.KEY, offset, length)])
            index.append_slice(piece)
        view = ColumnarSlice(index, RangeStore()).advance(1, len(spans))
        column = view.key_column(self.KEY)
        return None if column is None else column.merged

    def test_contiguous_spans_merge_across_batches(self):
        spans = [(0, 0, 2), (0, 2, 3), (0, 5, 1)]
        assert self.merged(spans) == [(0, 0, 6)]

    def test_gaps_stay_split(self):
        spans = [(0, 0, 2), (0, 4, 1)]
        assert self.merged(spans) == spans

    def test_owner_change_stays_split(self):
        spans = [(0, 0, 2), (1, 2, 1)]
        assert self.merged(spans) == spans

    def test_empty(self):
        assert self.merged([]) is None


class TestWindowAccess:
    def build(self):
        cluster = Cluster(num_nodes=1)
        strings = StringServer()
        store = DistributedStore(cluster, strings)
        registry = StreamIndexRegistry()
        registry.create_stream("S")
        schema = StreamSchema("S", frozenset({"ga"}))
        transients = [TransientStore("S")]

        # Inject two batches by hand: batch 1 has (u, po, p1); batch 2 has
        # (u, po, p2) and timing (u, ga, l1).
        u = strings.entity_id("u")
        p1, p2 = strings.entity_id("p1"), strings.entity_id("p2")
        l1 = strings.entity_id("l1")
        po, ga = strings.predicate_id("po"), strings.predicate_id("ga")

        key = make_key(u, po, DIR_OUT)
        for batch_no, post in ((1, p1), (2, p2)):
            piece = IndexSlice(batch_no)
            piece.add_batch_spans(
                0, store.shards[0].append_column([key], [post], sn=1))
            registry.index("S").append_slice(piece)
        transients[0].append_slice(
            2, EncodedColumns([u], [ga], [l1], [150]), EncodedColumns())

        return (cluster, strings, store, registry, schema, transients,
                dict(u=u, p1=p1, p2=p2, l1=l1, po=po, ga=ga))

    def access(self, parts, first, last, **kwargs):
        cluster, strings, store, registry, schema, transients, ids = parts
        view = ColumnarSlice(registry.index("S"), store).advance(first, last)
        return WindowAccess(cluster=cluster, store=store, strings=strings,
                            registry=registry, stream_schema=schema,
                            transients=transients, view=view,
                            **kwargs), ids

    def test_timeless_respects_batch_window(self):
        parts = self.build()
        both, ids = self.access(parts, 1, 2)
        only_second, _ = self.access(parts, 2, 2)
        meter = LatencyMeter()
        assert both.neighbors(ids["u"], ids["po"], DIR_OUT, meter) == \
            [ids["p1"], ids["p2"]]
        assert only_second.neighbors(ids["u"], ids["po"], DIR_OUT, meter) \
            == [ids["p2"]]

    def test_timing_routes_to_transient_store(self):
        parts = self.build()
        access, ids = self.access(parts, 1, 2)
        meter = LatencyMeter()
        assert access.neighbors(ids["u"], ids["ga"], DIR_OUT, meter) == \
            [ids["l1"]]
        # Outside the window: nothing.
        early, _ = self.access(parts, 1, 1)
        assert early.neighbors(ids["u"], ids["ga"], DIR_OUT, meter) == []

    def test_index_vertices_by_predicate_kind(self):
        parts = self.build()
        access, ids = self.access(parts, 1, 2)
        meter = LatencyMeter()
        assert access.index_vertices(ids["po"], DIR_OUT, meter) == \
            [ids["u"]]
        assert access.index_vertices(ids["ga"], DIR_OUT, meter) == \
            [ids["u"]]

    def test_non_replicated_index_costs_more(self):
        parts = self.build()
        remote_access, ids = self.access(parts, 1, 2)
        # A replica exists nowhere; force_local_index simulates one.
        local_access, _ = self.access(parts, 1, 2, force_local_index=True)
        remote_meter, local_meter = LatencyMeter(), LatencyMeter()
        remote_access.neighbors(ids["u"], ids["po"], DIR_OUT, remote_meter)
        local_access.neighbors(ids["u"], ids["po"], DIR_OUT, local_meter)
        assert remote_meter.ns > local_meter.ns

    def test_resolvers(self):
        parts = self.build()
        access, ids = self.access(parts, 1, 2)
        assert access.resolve_entity("u") == ids["u"]
        assert access.resolve_entity("ghost") is None
        assert access.resolve_predicate("po") == ids["po"]

    def test_index_vertices_local_partitions_by_owner(self):
        parts = self.build()
        access, ids = self.access(parts, 1, 2)
        meter = LatencyMeter()
        local = access.index_vertices_local(ids["po"], DIR_OUT, 0, meter)
        assert local == [ids["u"]]  # single-node cluster owns everything
