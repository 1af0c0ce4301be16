"""Tests for the stream index and its replication registry."""

import pytest

from repro.core.stream_index import ColumnarSlice, IndexSlice, \
    StreamIndex, StreamIndexRegistry
from repro.errors import StoreError, StreamError
from repro.rdf.ids import DIR_OUT, make_key
from repro.sim.cost import LatencyMeter

KEY = make_key(7, 3, DIR_OUT)
OTHER = make_key(8, 3, DIR_OUT)


def add(piece, owner, span):
    """Record one ``(key, offset, length)`` span as held by ``owner``."""
    piece.add_batch_spans(owner, [span])


def make_slice(batch_no, spans):
    piece = IndexSlice(batch_no)
    for owner, span in spans:
        add(piece, owner, span)
    return piece


class RangeShard:
    """Just enough of a shard for a view: entry i of every key is i."""

    def lookup_span(self, key, offset, length):
        return list(range(offset, offset + length))


class RangeStore:
    shards = [RangeShard(), RangeShard()]


def view_of(index, first, last):
    return ColumnarSlice(index, RangeStore()).advance(first, last)


def merged_over_slices(spans):
    """Merged geometry of KEY over one slice per ``(owner, span)``."""
    index = StreamIndex("S")
    for batch_no, (owner, span) in enumerate(spans, start=1):
        index.append_slice(make_slice(batch_no, [(owner, span)]))
    return view_of(index, 1, len(spans)).key_column(KEY).merged


class TestIndexSlice:
    # A slice holds one span per key; coalescing happens across the
    # consecutive slices of a window.
    def test_contiguous_spans_coalesce(self):
        assert merged_over_slices([(0, (KEY, 4, 1)), (0, (KEY, 5, 1)),
                                   (0, (KEY, 6, 1))]) == [(0, 4, 3)]

    def test_non_contiguous_spans_stay_separate(self):
        assert merged_over_slices([(0, (KEY, 4, 1)),
                                   (0, (KEY, 9, 1))]) == \
            [(0, 4, 1), (0, 9, 1)]

    def test_different_owners_stay_separate(self):
        assert merged_over_slices([(0, (KEY, 4, 1)),
                                   (1, (KEY, 5, 1))]) == \
            [(0, 4, 1), (1, 5, 1)]

    def test_second_write_of_a_key_rejected(self):
        # One column write per key per batch: a second span for a key,
        # contiguous or not, from any owner, is an invariant violation.
        piece = make_slice(1, [(0, (KEY, 4, 1))])
        for owner, span in ((0, (KEY, 5, 1)), (0, (KEY, 9, 1)),
                            (1, (KEY, 5, 1))):
            with pytest.raises(StoreError):
                add(piece, owner, span)
        assert piece.entries == {KEY: (0, 4, 1)}

    def test_vertices_tracked_per_predicate(self):
        piece = make_slice(1, [(0, (KEY, 0, 1)),
                               (0, (OTHER, 0, 1))])
        assert piece.vertices[(3, DIR_OUT)] == {7, 8}

    def test_refused_call_records_nothing(self):
        # The whole call is checked before any span is recorded: a
        # refused call leaves neither its earlier spans nor their
        # vertices behind.
        piece = make_slice(1, [(0, (KEY, 4, 1))])
        fresh = make_key(9, 5, DIR_OUT)
        for spans in ([(fresh, 0, 1), (KEY, 5, 1)],
                      [(fresh, 0, 1), (fresh, 1, 1)]):
            with pytest.raises(StoreError):
                piece.add_batch_spans(0, spans)
            assert piece.entries == {KEY: (0, 4, 1)}
            assert piece.vertices == {(3, DIR_OUT): {7}}

    def test_vertices_follow_later_spans(self):
        piece = make_slice(1, [(0, (KEY, 0, 1))])
        assert piece.vertices == {(3, DIR_OUT): {7}}
        add(piece, 1, (OTHER, 0, 1))
        assert piece.vertices == {(3, DIR_OUT): {7, 8}}


class TestStreamIndex:
    def build(self):
        index = StreamIndex("Like_Stream")
        index.append_slice(make_slice(1, [(0, (KEY, 0, 3))]))
        index.append_slice(make_slice(2, [(0, (KEY, 3, 2)),
                                          (1, (OTHER, 0, 1))]))
        index.append_slice(make_slice(3, [(0, (KEY, 5, 1))]))
        return index

    def test_lookup_spans_by_batch_range(self):
        index = self.build()
        column = view_of(index, 2, 3).key_column(KEY)
        assert column.batch_counts == [(2, 2), (3, 1)]
        assert column.values == [3, 4, 5]
        # Batch 3's span starts where batch 2's ends: one fat pointer.
        assert column.merged == [(0, 3, 3)]
        assert view_of(index, 4, 9).key_column(KEY) is None

    def test_vertices_by_batch_range(self):
        index = self.build()
        assert view_of(index, 1, 1).vertices(3, DIR_OUT) == ([7], 1)
        wide, scanned = view_of(index, 1, 3).vertices(3, DIR_OUT)
        assert set(wide) == {7, 8}
        assert scanned == 4  # batch 2 lists both vertices, 1 and 3 only 7
        assert view_of(index, 1, 3).probes == 3

    def test_append_out_of_order_rejected(self):
        index = self.build()
        with pytest.raises(StoreError):
            index.append_slice(make_slice(2, []))

    def test_collect_removes_early_slices(self):
        index = self.build()
        assert index.collect(3) == 2
        assert index.num_slices == 1
        assert index.earliest_batch == 3
        assert view_of(index, 1, 3).key_column(KEY).merged == [(0, 5, 1)]
        assert view_of(index, 1, 3).probes == 1

    def test_memory_accounting(self):
        index = self.build()
        before = index.memory_bytes()
        assert before > 0
        index.collect(4)
        assert index.memory_bytes() == 0


class TestRegistry:
    def test_replication_follows_interest(self):
        registry = StreamIndexRegistry()
        registry.create_stream("S")
        assert registry.replicas("S") == set()
        registry.add_interest("S", 2)
        registry.add_interest("S", 2)
        registry.add_interest("S", 5)
        assert registry.replicas("S") == {2, 5}
        assert registry.is_local("S", 2)
        assert not registry.is_local("S", 0)

    def test_replica_dropped_when_last_query_leaves(self):
        registry = StreamIndexRegistry()
        registry.create_stream("S")
        registry.add_interest("S", 1)
        registry.add_interest("S", 1)
        registry.drop_interest("S", 1)
        assert registry.is_local("S", 1)
        registry.drop_interest("S", 1)
        assert not registry.is_local("S", 1)

    def test_drop_without_interest_rejected(self):
        registry = StreamIndexRegistry()
        registry.create_stream("S")
        with pytest.raises(StreamError):
            registry.drop_interest("S", 0)

    def test_duplicate_stream_rejected(self):
        registry = StreamIndexRegistry()
        registry.create_stream("S")
        with pytest.raises(StreamError):
            registry.create_stream("S")

    def test_unknown_stream_rejected(self):
        registry = StreamIndexRegistry()
        with pytest.raises(StreamError):
            registry.index("nope")
        with pytest.raises(StreamError):
            registry.add_interest("nope", 0)

    def test_memory_scales_with_replicas(self):
        registry = StreamIndexRegistry()
        index = registry.create_stream("S")
        index.append_slice(make_slice(1, [(0, (KEY, 0, 4))]))
        one = registry.memory_bytes("S")
        registry.add_interest("S", 0)
        registry.add_interest("S", 1)
        assert registry.memory_bytes("S") == 2 * one
