"""Tests for the graph-exploration planner."""

import pytest

from repro.errors import PlanError
from repro.sparql.parser import parse_query
from repro.sparql.planner import (BOUND_OBJECT, BOUND_SUBJECT, CONST_OBJECT,
                                  CONST_SUBJECT, INDEX_START, plan_query,
                                  plan_steps)


def test_constant_start_preferred():
    # Both patterns have a constant; the tie breaks on WHERE order, so the
    # const-object pattern leads and the const-subject one follows.
    plan = plan_query(parse_query(
        "SELECT ?X WHERE { ?X ht tag . Logan po ?X }"))
    assert plan.steps[0].kind == CONST_OBJECT
    assert plan.steps[1].kind == CONST_SUBJECT
    assert plan.steps[1].pattern.subject == "Logan"


def test_bound_expansion_follows_constants():
    plan = plan_query(parse_query(
        "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }"))
    assert [s.kind for s in plan.steps] == [CONST_SUBJECT, BOUND_SUBJECT]


def test_bound_object_kind():
    plan = plan_query(parse_query(
        "SELECT ?P ?L WHERE { Logan po ?P . ?L li ?P }"))
    assert plan.steps[1].kind == BOUND_OBJECT


def test_index_start_when_no_constants():
    plan = plan_query(parse_query("SELECT ?U ?P WHERE { ?U po ?P }"))
    assert plan.steps[0].kind == INDEX_START


def test_index_start_then_bound():
    plan = plan_query(parse_query(
        "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }"))
    assert [s.kind for s in plan.steps] == [INDEX_START, BOUND_SUBJECT]


def test_variable_predicate_rejected():
    with pytest.raises(PlanError):
        plan_query(parse_query("SELECT ?X ?P WHERE { ?X ?P o }"))


def test_fixed_order_respected():
    query = parse_query(
        "SELECT ?X ?Y WHERE { Logan po ?X . ?Y li ?X . ?Y fo Erik }")
    plan = plan_query(query, fixed_order=[2, 1, 0])
    assert plan.steps[0].pattern is query.patterns[2]
    assert plan.steps[1].pattern is query.patterns[1]


def test_fixed_order_must_be_permutation():
    query = parse_query("SELECT ?X WHERE { Logan po ?X . ?X ht t }")
    with pytest.raises(PlanError):
        plan_query(query, fixed_order=[0, 0])


def test_plan_covers_all_patterns_once():
    query = parse_query(
        "SELECT ?X ?Y ?Z WHERE { ?X po ?Z . ?X fo ?Y . ?Y li ?Z }")
    plan = plan_query(query)
    assert sorted(id(s.pattern) for s in plan.steps) == \
        sorted(id(p) for p in query.patterns)


def test_plan_steps_with_prebound_variables():
    query = parse_query("SELECT ?X ?Y WHERE { ?X fo ?Y }")
    steps = plan_steps(query.patterns, prebound={"?X"})
    assert steps[0].kind == BOUND_SUBJECT


def test_skewed_constant_reorders_plan():
    """A heavy-hitter constant subject is demoted behind a lighter one.

    Predicate ``p`` has a *low mean* out-degree but the constant ``hot``
    holds most of its edges; ``q``'s mean is higher but ``hot``'s own
    ``q``-degree is small.  Mean-only statistics order the ``p`` pattern
    first (lower mean); the exact per-constant degrees know ``hot``'s
    actual fan-out and flip the order.
    """
    from repro.core.stats import PredicateStatistics
    from repro.rdf.parser import parse_triples
    from repro.rdf.string_server import StringServer
    from repro.sim.cluster import Cluster
    from repro.sparql.planner import plan_order
    from repro.store.distributed import DistributedStore

    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    lines = [f"hot p n{i} ." for i in range(6)]          # hot: 6 p-edges
    lines += [f"s{i} p m{i} ." for i in range(10)]       # 10 cold subjects
    lines += ["hot q t0 .", "hot q t1 ."]                # hot: 2 q-edges
    store.load(parse_triples("\n".join(lines)))
    stats = PredicateStatistics(store)

    # Every constant estimates its exact degree, hot or cold; a constant
    # with no edge under the predicate falls back to the mean.
    assert stats.subject_degree("p", "hot") == 6.0
    assert stats.subject_degree("q", "hot") == 2.0
    assert [stats.subject_degree("p", f"s{i}") for i in range(10)] == \
        [1.0] * 10
    assert stats.object_degree("p", "n0") == 1.0
    assert stats.subject_degree("q", "s0") == stats.out_degree("q")
    # Mean fan-out says p is the cheaper start; hot's own degree says q.
    assert stats.out_degree("p") < stats.out_degree("q")
    assert stats.subject_degree("p", "hot") > stats.subject_degree("q", "hot")

    query = parse_query("SELECT ?X ?Y WHERE { hot p ?X . hot q ?Y }")

    class MeanOnly:
        """Statistics without per-constant degrees."""
        out_degree = staticmethod(stats.out_degree)
        in_degree = staticmethod(stats.in_degree)
        index_size = staticmethod(stats.index_size)

    assert plan_order(query.patterns, stats=MeanOnly()) == [0, 1]
    assert plan_order(query.patterns, stats=stats) == [1, 0]
    # Every step after the first should be const or bound, never a fresh
    # index start, when the pattern graph is connected.
    query = parse_query("""
        SELECT ?X ?Y ?Z WHERE {
            GRAPH T { ?X po ?Z }
            GRAPH X { ?X fo ?Y }
            GRAPH L { ?Y li ?Z }
        }
    """.replace("GRAPH T", "GRAPH stream1").replace("GRAPH L", "GRAPH stream2")
        .replace("GRAPH X", "GRAPH stat"))
    plan = plan_query(query)
    assert plan.steps[0].kind == INDEX_START
    for step in plan.steps[1:]:
        assert step.kind in (BOUND_SUBJECT, BOUND_OBJECT)
