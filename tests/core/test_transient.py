"""Tests for the time-based transient store."""

import pytest

from repro.errors import StoreError
from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.rdf.terms import EncodedColumns
from repro.core.transient import TransientStore


def enc(s, p, o, ts=0):
    return (s, p, o, ts)


def cols(*rows):
    """Rows ``(s, p, o, ts)`` as one half's columns."""
    return EncodedColumns(*map(list, zip(*rows))) if rows \
        else EncodedColumns()


def filled_store(**kwargs):
    store = TransientStore("GPS", **kwargs)
    store.append_slice(1, cols(enc(1, 7, 100)), cols(enc(1, 7, 100)))
    store.append_slice(2, cols(enc(1, 7, 101), enc(2, 7, 100)),
                       cols(enc(1, 7, 101), enc(2, 7, 100)))
    store.append_slice(3, cols(enc(1, 7, 102)), cols(enc(1, 7, 102)))
    return store


def test_lookup_within_batch_range():
    store = filled_store()
    assert store.lookup(1, 7, DIR_OUT, 1, 3) == [100, 101, 102]
    assert store.lookup(1, 7, DIR_OUT, 2, 2) == [101]
    assert store.lookup(1, 7, DIR_OUT, 4, 9) == []


def test_in_edges_indexed_by_object():
    store = filled_store()
    assert store.lookup(100, 7, DIR_IN, 1, 3) == [1, 2]


def test_vertices_in_range_deduplicated():
    store = filled_store()
    assert store.vertices(7, DIR_OUT, 1, 3) == [1, 2]
    assert store.vertices(7, DIR_OUT, 3, 3) == [1]


def test_slices_must_append_in_order():
    store = filled_store()
    with pytest.raises(StoreError):
        store.append_slice(2, cols(), cols())


def test_collect_frees_early_side():
    store = filled_store()
    assert store.collect(3) == 2
    assert store.num_slices == 1
    assert store.earliest_batch == 3
    assert store.lookup(1, 7, DIR_OUT, 1, 3) == [102]


def test_collect_is_idempotent():
    store = filled_store()
    store.collect(3)
    assert store.collect(3) == 0


def test_ring_buffer_budget_evicts_expired():
    store = TransientStore("GPS", budget_bytes=100)
    store.append_slice(1, cols(enc(1, 7, 100)), cols())
    store.note_expired(1)
    # Appending more forces eviction of the expired slice.
    store.append_slice(2, cols(enc(2, 7, 101), enc(3, 7, 102),
                               enc(4, 7, 103), enc(5, 7, 104)), cols())
    assert store.evictions >= 1
    assert store.lookup(1, 7, DIR_OUT, 1, 2) == []


def test_ring_buffer_budget_refuses_to_evict_live_data():
    store = TransientStore("GPS", budget_bytes=64)
    store.append_slice(1, cols(enc(1, 7, 100)), cols())
    with pytest.raises(StoreError):
        store.append_slice(
            2, cols(*(enc(i, 7, 100 + i) for i in range(2, 8))), cols())


def test_memory_grows_and_shrinks():
    store = filled_store()
    before = store.memory_bytes()
    assert before > 0
    store.collect(4)
    assert store.memory_bytes() == 0
