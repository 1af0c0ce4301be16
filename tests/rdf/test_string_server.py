"""Tests for the string server."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import TimedTuple, Triple


def test_ids_are_stable():
    server = StringServer()
    first = server.entity_id("Logan")
    assert server.entity_id("Logan") == first


def test_entity_ids_start_after_index_vid():
    server = StringServer()
    assert server.entity_id("anything") >= 1


def test_entities_and_predicates_are_separate_spaces():
    server = StringServer()
    vid = server.entity_id("po")
    eid = server.predicate_id("po")
    assert server.entity_name(vid) == "po"
    assert server.predicate_name(eid) == "po"


def test_reverse_lookup_roundtrip():
    server = StringServer()
    for name in ["Logan", "Erik", "T-15"]:
        assert server.entity_name(server.entity_id(name)) == name


def test_reverse_lookup_of_index_vid_rejected():
    with pytest.raises(StoreError):
        StringServer().entity_name(0)


def test_unknown_ids_rejected():
    server = StringServer()
    with pytest.raises(StoreError):
        server.entity_name(99)
    with pytest.raises(StoreError):
        server.predicate_name(99)


def test_lookup_does_not_allocate():
    server = StringServer()
    assert server.lookup_entity("ghost") is None
    assert server.lookup_predicate("ghost") is None
    assert server.num_entities == 0
    assert server.num_predicates == 0


def test_encode_decode_triple():
    server = StringServer()
    triple = Triple("Logan", "po", "T-15")
    enc = server.encode_triple(triple)
    assert server.decode_triple(enc) == triple


def test_encode_tuple_keeps_timestamp():
    server = StringServer()
    enc = server.encode_tuple(TimedTuple(Triple("Logan", "po", "T-15"), 802))
    assert enc.timestamp_ms == 802


def test_counts():
    server = StringServer()
    server.encode_triple(Triple("a", "p", "b"))
    server.encode_triple(Triple("a", "q", "c"))
    assert server.num_entities == 3
    assert server.num_predicates == 2


_ENTITY = st.sampled_from([f"e{i}" for i in range(16)])
_PREDICATE = st.sampled_from([f"p{i}" for i in range(5)])


@settings(max_examples=150)
@given(warm=st.lists(st.tuples(_ENTITY, _PREDICATE, _ENTITY), max_size=10),
       batch=st.lists(st.tuples(_ENTITY, _PREDICATE, _ENTITY), max_size=40))
def test_encode_columns_allocates_like_encode_tuple(warm, batch):
    """On twin servers already holding the same names, encoding a batch
    as columns yields the per-tuple ids and leaves the same name tables:
    new names are allocated in row order, subject before object."""
    twins = StringServer(), StringServer()
    for server in twins:
        for triple in warm:  # some names known, the rest new
            server.encode_triple(Triple(*triple))
    tuples = [TimedTuple(Triple(*triple), ts)
              for ts, triple in enumerate(batch)]
    columnar, per_tuple = twins
    columns = columnar.encode_columns(tuples)
    encoded = [per_tuple.encode_tuple(tup) for tup in tuples]
    assert columns.s == [enc.triple.s for enc in encoded]
    assert columns.p == [enc.triple.p for enc in encoded]
    assert columns.o == [enc.triple.o for enc in encoded]
    assert columns.ts == [enc.timestamp_ms for enc in encoded]
    assert columnar._entity_names == per_tuple._entity_names
    assert columnar._predicate_names == per_tuple._predicate_names


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30))
def test_distinct_names_get_distinct_ids(names):
    server = StringServer()
    ids = [server.entity_id(n) for n in names]
    assert len(set(ids)) == len(set(names))
    for name, vid in zip(names, ids):
        assert server.entity_name(vid) == name
