"""Tests for the graph-exploration executor."""

import pytest

from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer

from store.helpers import load_triples

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
Erik li T-13 .
Erik li T-14 .
"""


def build(num_nodes=2):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    load_triples(store, parse_triples(XLAB))
    return cluster, strings, store


def factory_for(store):
    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access
    return factory


def run(cluster, strings, store, text, mode="auto", home_node=0):
    explorer = GraphExplorer(cluster, strings)
    meter = LatencyMeter()
    result = explorer.execute(plan_query(parse_query(text)),
                              factory_for(store), meter,
                              home_node=home_node, mode=mode)
    named = sorted(tuple(strings.entity_name(v) for v in row)
                   for row in result.rows)
    return named, meter


def test_paper_oneshot_qs():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . "
                  "Erik li ?X }")
    assert rows == [("T-13",)]


def test_const_object_start():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?X WHERE { ?X ht sosp17 }")
    assert rows == [("T-12",), ("T-13",)]


def test_two_hop_exploration():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }")
    assert rows == [("Erik", "T-12")]


def test_index_start_enumerates_all():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?U ?P WHERE { ?U po ?P }")
    assert rows == [("Erik", "T-12"), ("Logan", "T-13"), ("Logan", "T-14")]


def test_fork_join_equals_in_place():
    cluster, strings, store = build(num_nodes=3)
    text = "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }"
    in_place, _ = run(cluster, strings, store, text, mode="in_place")
    fork_join, _ = run(cluster, strings, store, text, mode="fork_join")
    assert in_place == fork_join == \
        [("Erik", "T-12", "sosp17"), ("Logan", "T-13", "sosp17")]


def test_auto_picks_fork_join_for_index_start():
    cluster, strings, store = build(num_nodes=2)
    explorer = GraphExplorer(cluster, strings)
    plan = plan_query(parse_query("SELECT ?U ?P WHERE { ?U po ?P }"))
    meter = LatencyMeter()
    explorer.execute(plan, factory_for(store), meter, mode="auto")
    assert "fork" in meter.breakdown_ms  # fork-join costs were charged


def test_migrate_mode_equals_in_place():
    cluster, strings, store = build(num_nodes=3)
    for text in ("SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }",
                 "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }",
                 "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }"):
        in_place, _ = run(cluster, strings, store, text, mode="in_place")
        migrated, _ = run(cluster, strings, store, text, mode="migrate")
        assert migrated == in_place, text


def test_auto_picks_migrate_without_rdma():
    cluster = Cluster(num_nodes=3, use_rdma=False)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    load_triples(store, parse_triples(XLAB))
    rows, meter = run(cluster, strings, store,
                      "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }")
    assert rows == [("Erik", "T-12")]
    # Migration uses bulk messages, never per-read round trips.
    assert cluster.fabric.stats.rdma_reads == 0


def test_migrate_uses_bulk_rounds_not_per_row_reads():
    cluster, strings, store = build(num_nodes=4)
    text = "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }"
    cluster.fabric.stats.reset()
    run(cluster, strings, store, text, mode="migrate")
    # Network operations are bounded by migration rounds + gather fan-in
    # (2 steps + up to 4 gathering nodes), never one per row/read.
    ops = cluster.fabric.stats.rdma_reads + cluster.fabric.stats.messages
    assert 0 < ops <= 2 + cluster.num_nodes


def test_unknown_constant_yields_empty():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?X WHERE { Nobody po ?X }")
    assert rows == []


def test_failed_join_yields_empty():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?X WHERE { Erik po ?X . ?X ht sosp17 . "
                  "Logan li ?X . Erik li ?X }")
    assert rows == []


def test_constant_object_filter():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?U WHERE { ?U fo Erik }")
    assert rows == [("Logan",)]


def test_projection_deduplicates():
    cluster, strings, store = build()
    # Two matching tweets project to the same ?U value.
    rows, _ = run(cluster, strings, store,
                  "SELECT ?U WHERE { ?U po ?P . ?P ht sosp17 }")
    assert rows == [("Erik",), ("Logan",)]


def test_shared_variable_across_three_patterns():
    cluster, strings, store = build()
    rows, _ = run(cluster, strings, store,
                  "SELECT ?X ?Y ?Z WHERE "
                  "{ ?X po ?Z . ?X fo ?Y . ?Y li ?Z }")
    assert ("Logan", "Erik", "T-13") in rows
    assert ("Erik", "Logan", "T-12") in rows


def test_self_loop_binding_consistency():
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    load_triples(store, parse_triples("a p a .\na p b ."))
    rows, _ = run(cluster, strings, store, "SELECT ?X WHERE { ?X p ?X }")
    assert rows == [("a",)]


def test_latency_positive_and_deterministic():
    cluster, strings, store = build()
    text = "SELECT ?X WHERE { Logan po ?X }"
    _, first = run(cluster, strings, store, text)
    _, second = run(cluster, strings, store, text)
    assert first.ns > 0
    assert first.ns == second.ns


class MinimalAccess:
    """A source with nothing but the reads an access has: it resolves no
    term (the explorer does) and has no single-vid or per-owner index
    read of its own."""

    def __init__(self, inner):
        self.neighbors_many = inner.neighbors_many
        self.neighbors_versions_batch = inner.neighbors_versions_batch
        self.index_vertices = inner.index_vertices


#: One query per step kind: constant subject, constant object, bound
#: subject and object, index start, and quintuple steps (index start,
#: constant start, bound start).
STEP_KINDS = [
    "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }",
    "SELECT ?U ?P WHERE { ?P ht sosp17 . ?U po ?P }",
    "SELECT ?X ?Y ?Z WHERE { ?X po ?Z . ?X fo ?Y . ?Y li ?Z }",
    "SELECT ?U ?P WHERE { ?U po ?P . ?U ty XMen }",
    "SELECT ?U ?P ?ts ?te WHERE { ?U po ?P [?ts, ?te) }",
    "SELECT ?P ?ts WHERE { Logan po ?P [?ts, ?te) }",
    "SELECT ?F ?P ?ts WHERE { Logan fo ?F . ?F po ?P [?ts, ?te) }",
]


@pytest.mark.parametrize("mode", ["in_place", "fork_join", "migrate"])
@pytest.mark.parametrize("text", STEP_KINDS)
def test_minimal_access_runs_every_step_kind(text, mode):
    """An access that only reads gives the rows and the exact charges of
    PersistentAccess on every step kind."""
    cluster, strings, store = build(num_nodes=3)
    load_triples(store, parse_triples("Logan po T-15 .\nErik li T-15 ."),
                 sn=2)
    plan = plan_query(parse_query(text))
    if mode != "in_place" and any(step.pattern.ts for step in plan.steps):
        mode = "in_place"  # version-chain reads are priced from home
    explorer = GraphExplorer(cluster, strings)
    outcomes = []
    for wrap in (lambda access: access, MinimalAccess):
        def factory(node_id):
            access = wrap(PersistentAccess(store, home_node=node_id))
            return lambda pattern: access
        meter = LatencyMeter()
        result = explorer.execute(plan, factory, meter, mode=mode)
        outcomes.append((result.rows, meter.ps, meter.breakdown_ps))
    assert outcomes[0][0], text
    assert outcomes[1] == outcomes[0]


def test_explorer_resolves_terms():
    """Constants and predicates resolve through the explorer's string
    server; an unknown one matches nothing."""
    cluster, strings, store = build()
    explorer = GraphExplorer(cluster, strings)

    def factory(node_id):
        access = MinimalAccess(PersistentAccess(store, home_node=node_id))
        return lambda pattern: access

    def rows(text):
        result = explorer.execute(plan_query(parse_query(text)), factory,
                                  LatencyMeter())
        return sorted(strings.entity_name(row[0]) for row in result.rows)

    assert rows("SELECT ?X WHERE { Logan po ?X }") == ["T-13", "T-14"]
    assert rows("SELECT ?X WHERE { ghost po ?X }") == []
    assert rows("SELECT ?X WHERE { Logan nothing ?X }") == []


def test_explorer_lookups_do_not_allocate():
    """Resolving a term the store has never seen registers no id."""
    cluster, strings, store = build()
    entities, predicates = strings.num_entities, strings.num_predicates
    for text in ("SELECT ?X WHERE { nobody po ?X }",
                 "SELECT ?X WHERE { Logan nothing ?X }",
                 "SELECT ?X WHERE { ?X po nobody }",
                 "SELECT ?X WHERE { ?X nothing ?Y }"):
        rows, _ = run(cluster, strings, store, text)
        assert rows == [], text
    assert (strings.num_entities, strings.num_predicates) == \
        (entities, predicates)


def test_more_nodes_cost_more_network_for_remote_data():
    single_cluster, s1, st1 = build(num_nodes=1)
    multi_cluster, s2, st2 = build(num_nodes=4)
    text = "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }"
    _, local_meter = run(single_cluster, s1, st1, text)
    _, multi_meter = run(multi_cluster, s2, st2, text)
    assert multi_meter.ns >= local_meter.ns


UNION_DATA = "Logan po T1 .\nErik po T2 .\nT1 ht sosp .\nT2 ht osdi ."

#: A WHERE block that is only a UNION has no steps, so every FILTER of
#: it is left over (used to crash looking for a first step's access).
PURE_UNION_FILTERS = [
    ("SELECT ?P WHERE { { Logan po ?P } UNION { Erik po ?P } "
     "FILTER (?P != T1) }", [("T2",)]),
    ("SELECT ?P ?T WHERE { { Logan po ?P } UNION { Erik po ?P } "
     "OPTIONAL { ?P ht ?T } FILTER (?T = sosp) }", [("T1", "sosp")]),
]


@pytest.mark.parametrize("mode", ["in_place", "fork_join", "migrate"])
@pytest.mark.parametrize("text, expected", PURE_UNION_FILTERS)
def test_pure_union_with_filters(text, expected, mode):
    cluster = Cluster(num_nodes=2)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    load_triples(store, parse_triples(UNION_DATA))
    result = GraphExplorer(cluster, strings).execute(
        plan_query(parse_query(text)), factory_for(store), LatencyMeter(),
        mode=mode)
    assert [tuple(map(strings.entity_name, row))
            for row in result.rows] == expected


@pytest.mark.parametrize("text, expected", PURE_UNION_FILTERS)
def test_pure_union_with_filters_oneshot(text, expected):
    engine = WukongSEngine(schemas=[], config=EngineConfig(num_nodes=2))
    engine.load_static(parse_triples(UNION_DATA))
    for home_node in (0, 1):
        record = engine.oneshot(text, home_node=home_node)
        assert [tuple(map(engine.strings.entity_name, row))
                for row in record.result.rows] == expected
