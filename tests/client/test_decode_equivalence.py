"""The columnar decoder against the per-value loop it replaced.

``reference_decode`` below is the decoder as it stood before result
delivery went columnar, kept here — and only here — as the reference:
one value at a time through ``StringServer.entity_name``.  The
hypothesis test drives ``ClientLibrary._decode_rows`` with random
results and requires the same rows, or the same refusal.
"""

from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import library as client_library
from repro.client.library import ClientLibrary
from repro.client.procedures import ProcedureCache
from repro.errors import StoreError
from repro.rdf.string_server import StringServer

from core.test_engine import build_engine

NUM_ENTITIES = 40

#: Queries by number of GROUP BY columns; None = no aggregates at all
#: (the decoder reads only ``aggregates`` and ``group_by`` off them).
QUERIES = {
    None: "SELECT ?a ?b ?c WHERE { ?a p ?b . ?b p ?c }",
    0: "SELECT COUNT(?b) AS ?n AVG(?b) AS ?m WHERE { ?a p ?b }",
    1: "SELECT ?a COUNT(?b) AS ?n AVG(?b) AS ?m WHERE { ?a p ?b } "
       "GROUP BY ?a",
    2: "SELECT ?a ?b COUNT(?c) AS ?n WHERE { ?a p ?b . ?b p ?c } "
       "GROUP BY ?a ?b",
}


def reference_decode(strings, procedure, rows):
    """The per-value decode loop (the pre-columnar ``_decode``)."""
    group_width = len(procedure.query.group_by)
    decoded = []
    for row in rows:
        out_row = []
        for index, value in enumerate(row):
            if procedure.query.aggregates and index >= group_width:
                out_row.append(value)  # aggregate: already a value
            elif isinstance(value, int) and value > 0:
                out_row.append(strings.entity_name(value))
            else:
                out_row.append(None)
        decoded.append(tuple(out_row))
    return decoded


@pytest.fixture(scope="module")
def library():
    strings = StringServer()
    for i in range(NUM_ENTITIES):
        strings.entity_id(f"entity{i}")
    # The decoder needs the string server and nothing else of an engine.
    return ClientLibrary(SimpleNamespace(strings=strings))


@pytest.fixture(scope="module")
def procedures():
    cache = ProcedureCache()
    return {groups: cache.get(text) for groups, text in QUERIES.items()}


def outcome(decode, *args):
    try:
        return decode(*args)
    except StoreError:
        return StoreError


#: What a projected cell may hold: known vids (mostly), an unbound
#: OPTIONAL's -1, the index vertex, None, bools, an unknown vid (both
#: decoders must refuse it), and values that only aggregate columns
#: legitimately carry but that must decode to None elsewhere.
cells = st.one_of(
    st.integers(min_value=1, max_value=NUM_ENTITIES),
    st.integers(min_value=1, max_value=NUM_ENTITIES),
    st.sampled_from((-1, 0, None, True, False, -7)),
    st.sampled_from((NUM_ENTITIES + 1, 10 ** 30)),
    st.floats(allow_nan=False), st.text(max_size=3))
#: Mostly-clean cells: whole columns take the bulk lookup.
vids = st.integers(min_value=1, max_value=NUM_ENTITIES)


@st.composite
def results(draw):
    groups = draw(st.sampled_from(list(QUERIES)))
    width = draw(st.integers(min_value=0, max_value=4))
    column_cells = [draw(st.sampled_from((vids, cells)))
                    for _ in range(width)]
    rows = draw(st.lists(st.tuples(*column_cells), max_size=30))
    return groups, rows


@settings(max_examples=300, deadline=None)
@given(result=results())
def test_columnar_decoder_matches_per_value_loop(library, procedures,
                                                 result):
    groups, rows = result
    procedure = procedures[groups]
    strings = library.engine.strings
    want = outcome(reference_decode, strings, procedure, rows)
    # Once in one block, once with the answer spanning several.
    for block_rows in (client_library._DECODE_BLOCK_ROWS, 7):
        with patch.object(client_library, "_DECODE_BLOCK_ROWS", block_rows):
            got = outcome(library._decode_rows, procedure, rows)
        assert got == want
        if want is not StoreError:
            assert isinstance(got, list)  # materialised, not a view
            assert [type(cell) for row in got for cell in row] == \
                [type(cell) for row in want for cell in row]


def test_edge_shapes(library, procedures):
    plain = procedures[None]
    assert library._decode_rows(plain, []) == []
    assert library._decode_rows(plain, [()]) == [()]  # ASK, one solution
    assert library._decode_rows(plain, [(), ()]) == [(), ()]
    assert library._decode_rows(plain, [(3,)]) == [("entity2",)]
    assert library._decode_rows(procedures[0], [(7, 2.5)]) == [(7, 2.5)]
    with pytest.raises(StoreError):
        library._decode_rows(plain, [(1, 2), (1, NUM_ENTITIES + 1)])


def test_answer_larger_than_one_real_block(library, procedures):
    block = client_library._DECODE_BLOCK_ROWS
    rows = [(1 + i % NUM_ENTITIES, -1 if i % 1000 == 0 else 2, i * 0.5)
            for i in range(2 * block + 17)]
    strings = library.engine.strings
    for groups in (None, 2):
        assert library._decode_rows(procedures[groups], rows) == \
            reference_decode(strings, procedures[groups], rows)


def test_bulk_reverse_lookup_refusals():
    strings = StringServer()
    abc = [strings.entity_id(name) for name in ("a", "b", "c")]
    assert strings.entity_names(abc + abc[::-1]) == list("abccba")
    assert strings.entity_names([]) == []
    for bad in (0, -1, 4):
        with pytest.raises(StoreError):
            strings.entity_names([1, bad, 2])


def test_interval_endpoints_decode_as_entities_today():
    """Characterization, not endorsement: ``?ts`` / ``?fts`` / ``?pts``
    of the T2 / T4 shapes are snapshot numbers, but the decoder sends
    every positive int through the entity table, so SN 3 comes back as
    vid 3's name ('Erik') and SN 0 as None.  The repo benchmark's
    ``expected.json`` pins the sha256 of such rows for the ``history``
    workload, so the columnar decoder reproduces them cell for cell; the
    fix needs a benchmark re-pin — ROADMAP.md, open item 6.
    """
    engine = build_engine(num_nodes=1, scalarization=False)
    engine.run_until(10_000)
    client = ClientLibrary(engine)
    t2 = client.submit(
        "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
        "FILTER (?ts >= 0) FILTER (?ts < 99) }")
    assert t2.columns == ["?U", "?P", "?ts"]
    assert sorted(t2.rows, key=repr) == [
        ("Erik", "T-12", None), ("Erik", "T-16", "T-12"),
        ("Logan", "T-13", None), ("Logan", "T-14", None),
        ("Logan", "T-15", "Erik"), ("Logan", "T-17", "loc31121")]
    t4 = client.submit(
        "SELECT ?F ?P ?fts ?pts WHERE { Logan fo ?F [?fts, ?fte) . "
        "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }")
    assert sorted(t4.rows, key=repr) == [
        ("Erik", "T-12", None, None), ("Erik", "T-16", None, "T-12")]
