"""Property tests: graph exploration == relational join semantics.

The executor's graph exploration and the baselines' relational scan+join
pipeline are two independent evaluators of the same conjunctive queries.
On random graphs and random (connected) patterns they must produce exactly
the same binding sets — a strong cross-check of both engines.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.relational import hash_join, project, scan_pattern
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import Query, TriplePattern
from repro.sparql.planner import plan_query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer

from store.helpers import load_triples

ENTITIES = [f"e{i}" for i in range(8)]
PREDICATES = ["p", "q", "r"]

triple_strategy = st.tuples(
    st.sampled_from(ENTITIES), st.sampled_from(PREDICATES),
    st.sampled_from(ENTITIES))

graph_strategy = st.lists(triple_strategy, min_size=1, max_size=30)


def term_strategy(variables):
    return st.one_of(st.sampled_from(ENTITIES), st.sampled_from(variables))


def query_strategy():
    """Queries of 1-3 patterns whose variables chain them together."""
    def build(draw_terms):
        patterns = []
        for idx, (s, p, o) in enumerate(draw_terms):
            patterns.append(TriplePattern(s, p, o))
        return Query(select=[], patterns=patterns)

    single = st.lists(
        st.tuples(term_strategy(["?a", "?b"]), st.sampled_from(PREDICATES),
                  term_strategy(["?a", "?b"])),
        min_size=1, max_size=1).map(build)
    chained = st.lists(
        st.tuples(term_strategy(["?a"]), st.sampled_from(PREDICATES),
                  st.just("?a")),
        min_size=2, max_size=3).map(build)
    return st.one_of(single, chained)


def relational_answer(triples, query, strings):
    """Evaluate the query with scans + hash joins over the triple table."""
    table = strings.encode_triples(triples)
    cost = CostModel()
    meter = LatencyMeter()
    rows = None
    for pattern in query.patterns:
        scanned = scan_pattern(table, pattern, strings, meter, 1.0, cost)
        if not pattern.variables():
            # All-constant pattern: acts as a boolean filter.
            if not scanned:
                return set()
            continue
        rows = scanned if rows is None else hash_join(rows, scanned, meter,
                                                      cost)
    if rows is None:
        rows = [{}]
    return set(project(rows, query.projected(), meter, cost))


def exploration_answer(triples, query, strings, num_nodes):
    cluster = Cluster(num_nodes=num_nodes)
    store = DistributedStore(cluster, strings)
    load_triples(store, [Triple(*t) for t in triples])
    explorer = GraphExplorer(cluster, strings)

    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access

    result = explorer.execute(plan_query(query), factory, LatencyMeter())
    return set(result.rows)


@settings(max_examples=60, deadline=None)
@given(triples=graph_strategy, query=query_strategy(),
       num_nodes=st.sampled_from([1, 3]))
def test_exploration_matches_relational_semantics(triples, query, num_nodes):
    strings = StringServer()
    # Pre-register every vocabulary item so both evaluators share IDs.
    for entity in ENTITIES:
        strings.entity_id(entity)
    for predicate in PREDICATES:
        strings.predicate_id(predicate)

    expected = relational_answer(triples, query, strings)
    actual = exploration_answer(triples, query, strings, num_nodes)
    assert actual == expected


@settings(max_examples=30, deadline=None)
@given(triples=graph_strategy, query=query_strategy())
def test_execution_modes_agree(triples, query):
    strings = StringServer()
    for entity in ENTITIES:
        strings.entity_id(entity)
    for predicate in PREDICATES:
        strings.predicate_id(predicate)
    cluster = Cluster(num_nodes=3)
    store = DistributedStore(cluster, strings)
    load_triples(store, [Triple(*t) for t in triples])
    explorer = GraphExplorer(cluster, strings)

    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access

    plan = plan_query(query)
    answers = {
        mode: set(explorer.execute(plan, factory, LatencyMeter(),
                                   mode=mode).rows)
        for mode in ("in_place", "fork_join", "migrate")
    }
    assert answers["in_place"] == answers["fork_join"] == answers["migrate"]


@settings(max_examples=30, deadline=None)
@given(triples=graph_strategy, query=query_strategy(),
       keep=st.sampled_from(ENTITIES))
def test_filters_agree_across_modes_and_with_post_filtering(triples, query,
                                                            keep):
    """An equality FILTER must equal post-hoc filtering, in every mode."""
    from repro.sparql.ast import FilterExpr

    variables = query.variables()
    if not variables:
        return
    target = variables[0]
    filtered_query = type(query)(
        select=list(query.select), patterns=list(query.patterns),
        filters=[FilterExpr(target, "=", keep)])

    strings = StringServer()
    for entity in ENTITIES:
        strings.entity_id(entity)
    for predicate in PREDICATES:
        strings.predicate_id(predicate)
    cluster = Cluster(num_nodes=3)
    store = DistributedStore(cluster, strings)
    load_triples(store, [Triple(*t) for t in triples])
    explorer = GraphExplorer(cluster, strings)

    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access

    unfiltered = explorer.execute(plan_query(query), factory,
                                  LatencyMeter())
    keep_vid = strings.entity_id(keep)
    target_index = unfiltered.variables.index(target) \
        if target in unfiltered.variables else None
    if target_index is None:
        return
    expected = {row for row in unfiltered.rows
                if row[target_index] == keep_vid}

    plan = plan_query(filtered_query)
    for mode in ("in_place", "fork_join", "migrate"):
        got = set(explorer.execute(plan, factory, LatencyMeter(),
                                   mode=mode).rows)
        assert got == expected, mode
