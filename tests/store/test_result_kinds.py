"""``ExecutionResult.kinds``: one kind per projected column, decided once
by the compiled plan — vid, snapshot number or aggregate value — for
every result shape, and read by the FILTER compiler: a FILTER over
snapshot numbers and constants only never reaches the per-row
``filter_matches`` path.
"""

from unittest.mock import patch

import pytest

from repro.sparql.ast import OPEN_END
from repro.sparql.parser import parse_query
from repro.store import executor
from repro.store.executor import AGG, SN, VID
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from core.test_engine import build_engine

T2 = ("SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
      "FILTER (?ts >= 0) FILTER (?ts < 99) }")
T3 = ("SELECT ?U ?P WHERE { ?U po ?P [?ts, ?te) "
      "FILTER ([?ts, ?te) OVERLAPS [0, 99)) }")
T4 = ("SELECT ?F ?P ?fts ?pts WHERE { Logan fo ?F [?fts, ?fte) . "
      "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }")


@pytest.fixture(scope="module")
def engine():
    engine = build_engine(num_nodes=1, scalarization=False)
    engine.run_until(10_000)
    return engine


def run(engine, text):
    result = engine.oneshot(text, home_node=0).result
    assert len(result.kinds) == len(result.variables)
    return result


@pytest.mark.parametrize("text, kinds", [
    ("SELECT ?U ?P WHERE { ?U po ?P }", [VID, VID]),
    (T2, [VID, VID, SN]),
    (T3, [VID, VID]),
    (T4, [VID, VID, SN, SN]),
    ("SELECT ?U ?P ?ts ?te WHERE { ?U po ?P [?ts, ?te) }",
     [VID, VID, SN, SN]),
    ("SELECT ?U COUNT(?P) AS ?n AVG(?P) AS ?m WHERE { ?U po ?P } "
     "GROUP BY ?U", [VID, AGG, AGG]),
    ("SELECT COUNT(?P) AS ?n WHERE { ?U po ?P }", [AGG]),
    ("ASK WHERE { ?U po ?P }", []),
    ("SELECT ?P ?ts WHERE { ?U po ?P [?ts, ?te) } LIMIT 2 OFFSET 1",
     [VID, SN]),
])
def test_kinds_per_shape(engine, text, kinds):
    result = run(engine, text)
    assert result.kinds == kinds
    assert len(result) > 0


def test_cells_hold_what_their_kind_says(engine):
    result = run(engine, "SELECT ?U ?P ?ts ?te WHERE { ?U po ?P [?ts, ?te) }")
    users, posts, starts, ends = result.columns
    strings = engine.strings
    assert {strings.entity_name(vid) for vid in users} == {"Erik", "Logan"}
    assert all(strings.entity_name(vid).startswith(("T-", "loc"))
               for vid in posts)
    assert ends == [OPEN_END] * len(result)
    assert all(0 <= sn <= engine.coordinator.stable_sn for sn in starts)
    grouped = run(engine, "SELECT ?U COUNT(?P) AS ?n WHERE { ?U po ?P } "
                          "GROUP BY ?U")
    assert sum(grouped.columns[1]) == len(run(
        engine, "SELECT ?U ?P WHERE { ?U po ?P }"))


def test_unbound_projected_variable_is_a_vid_column_of_minus_one(engine):
    result = run(engine, "SELECT ?U ?Z WHERE { ?U po ?P "
                         "OPTIONAL { ?P nowhere ?Z } }")
    assert result.kinds == [VID, VID]
    assert result.columns[1] == [-1] * len(result)


def test_archived_temporal_record_keeps_its_kinds(engine):
    record = engine.oneshot(T4, home_node=0)
    archived = engine.temporal.records[-1]
    assert archived.result.columns == [] and len(archived.result) == 0
    assert archived.result.variables == record.result.variables
    assert archived.result.kinds == record.result.kinds == \
        [VID, VID, SN, SN]


def test_sn_only_filters_never_reach_the_per_row_path(engine):
    """T2's ``?ts`` bounds, T3's interval FILTER and T4's ``?pts >=
    ?fts`` compare snapshot numbers and constants only: they run to
    completion — with the oracle's rows — while ``filter_matches``
    raises."""
    history = dump_history(engine.store)

    def refuse(*args):
        raise AssertionError("per-row FILTER path reached")

    with patch.object(executor, "filter_matches", refuse):
        for text in (T2, T3, T4):
            record = engine.oneshot(text, home_node=0)
            assert len(record.result) > 0
            assert sorted(decode_result(record.result, engine.strings)) == \
                sorted(reference_rows(parse_query(text), history,
                                      record.snapshot))
        # The patch is live: a FILTER over a vid does take that path.
        with pytest.raises(AssertionError, match="per-row"):
            engine.oneshot("SELECT ?U WHERE { ?U po ?P [?ts, ?te) "
                           "FILTER (?U != Erik) }", home_node=0)
