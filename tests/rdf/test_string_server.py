"""Tests for the string server."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StoreError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple


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


def test_counts():
    server = StringServer()
    server.encode_triples([Triple("a", "p", "b"), Triple("a", "q", "c")])
    assert server.num_entities == 3
    assert server.num_predicates == 2


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30))
def test_distinct_names_get_distinct_ids(names):
    server = StringServer()
    ids = [server.entity_id(n) for n in names]
    assert len(set(ids)) == len(set(names))
    for name, vid in zip(names, ids):
        assert server.entity_name(vid) == name
