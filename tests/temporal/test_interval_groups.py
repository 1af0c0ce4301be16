"""Interval patterns beside OPTIONAL groups and UNION arms.

A quintuple step is an ordinary executor step, so a query may combine
mandatory quintuple patterns with OPTIONAL and UNION groups; the rows
must equal the brute-force oracle's on one and two nodes.  Two shapes
stay refused by the parser: a quintuple pattern *inside* a group (its
endpoints could be unbound in the rows an interval FILTER reads) and an
interval query with aggregates (aggregates read bindings as entity
names; ``?ts`` / ``?te`` are snapshot numbers).
"""

import pytest

from repro.sparql.parser import ParseError, parse_query
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from core.test_engine import build_engine

pytestmark = pytest.mark.temporal

QUERIES = [
    "SELECT ?P ?ts ?T WHERE { Logan po ?P [?ts, ?te) . "
    "OPTIONAL { ?P ht ?T } }",
    "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) . "
    "{ ?P ht sosp17 } UNION { Logan li ?P } }",
    "SELECT ?X ?P ?ts WHERE { { Logan po ?P } UNION { Logan li ?P } . "
    "?X po ?P [?ts, ?te) }",
    # An interval FILTER on the mandatory step, a leftover FILTER after
    # the OPTIONAL group.
    "SELECT ?P ?T WHERE { Logan po ?P [?ts, ?te) . OPTIONAL { ?P ht ?T } "
    "FILTER ([?ts, ?te) DURING [1, *)) FILTER (?T = sosp17) }",
]


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def engine(request):
    eng = build_engine(num_nodes=request.param, scalarization=False)
    eng.run_until(10_000)
    return eng


@pytest.mark.parametrize("text", QUERIES)
def test_interval_query_with_groups_matches_reference(engine, text):
    query = parse_query(text)
    record = engine.oneshot(text, home_node=0)
    assert record.interval_path
    got = decode_result(record.result, engine.strings,
                        set(query.interval_variables()))
    want = reference_rows(query, dump_history(engine.store), record.snapshot)
    assert got and sorted(map(str, got)) == sorted(map(str, want))
    # Some rows come from data streamed after the base snapshot.
    if "?ts" in query.projected():
        ts_at = query.projected().index("?ts")
        assert len({row[ts_at] for row in got}) > 1


@pytest.mark.parametrize("text", [
    "SELECT ?P WHERE { Logan fo ?F OPTIONAL { ?F po ?P [?ts, ?te) } }",
    "SELECT ?P WHERE { { Logan po ?P [?ts, ?te) } UNION { Logan li ?P } }",
    "SELECT ?P COUNT(?P) AS ?N WHERE { Logan po ?P [?ts, ?te) } GROUP BY ?P",
    "SELECT ?P COUNT(?P) AS ?N WHERE { Logan po ?P "
    "FILTER ([1, 3) OVERLAPS [2, 4)) } GROUP BY ?P",
])
def test_refused_interval_shapes(text):
    with pytest.raises(ParseError):
        parse_query(text)
