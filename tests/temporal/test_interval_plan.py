"""An interval query is an ordinary compiled plan on the one executor.

What follows from that and nothing else pinned: ``ASK`` over a quintuple
pattern projects like any other ``ASK``; a plan with a quintuple step
stays in place at its home node (no ``fork`` / ``gather``); a quintuple
step charges its probes before it resolves the other side's constant,
while a suffix-less step resolves first; and one pattern variable on
both sides of a quintuple pattern constrains the match.
"""

import pytest

from repro.client.library import ClientLibrary
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import (BOUND_SUBJECT, CONST_SUBJECT,
                                  ExecutionPlan, PlannedStep, plan_query)
from repro.store.executor import GraphExplorer
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from store.kernel_cases import (BOUNDARY_EVENTS, build_posts_engine,
                                persistent_factory)

pytestmark = pytest.mark.temporal


@pytest.fixture(scope="module")
def engine():
    # u0 and u1 post (u0 thrice); u2 never does.  ``u0 fo u0`` is the
    # one self-loop.
    eng = build_posts_engine(
        BOUNDARY_EVENTS, static="u0 fo u1 .\nu1 fo u2 .\nu0 fo u0 .")
    eng.run_until(6_000)
    return eng


@pytest.mark.parametrize("actor, answer", [("u0", True), ("u2", False)])
def test_ask_over_a_quintuple_pattern_answers_like_plain_ask(engine, actor,
                                                            answer):
    interval = f"ASK WHERE {{ {actor} po ?P [?ts, ?te) }}"
    plain = f"ASK WHERE {{ {actor} po ?P }}"
    records = [engine.oneshot(text, home_node=0)
               for text in (interval, plain)]
    assert records[0].interval_path
    for record in records:
        assert record.result.variables == []
        assert record.result.rows == ([()] if answer else [])
        assert record.result.as_bool() is answer
    client = ClientLibrary(engine)
    delivered = [client.submit(text, home_node=0)
                 for text in (interval, plain)]
    assert delivered[0].columns == delivered[1].columns == []
    assert delivered[0].rows == delivered[1].rows == \
        ([()] if answer else [])


def test_index_start_interval_query_stays_in_place_on_two_nodes(engine):
    assert engine.cluster.num_nodes == 2
    interval = engine.oneshot(
        "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) }", home_node=0)
    plain = engine.oneshot("SELECT ?U ?P WHERE { ?U po ?P }", home_node=0)
    # The suffix-less twin forks to both nodes and gathers; the quintuple
    # step reads remote chains from its home node instead.
    assert {"fork", "gather"} <= set(plain.meter.breakdown_ps)
    assert not {"fork", "gather"} & set(interval.meter.breakdown_ps)
    assert interval.meter.breakdown_ps["network"] > 0
    assert {row[:2] for row in interval.result.rows} == \
        set(plain.result.rows)


@pytest.mark.parametrize("text", [
    "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) }",
    "SELECT ?F ?U ?P ?ts WHERE { u0 fo ?F . ?U po ?P [?ts, ?te) }",
    "SELECT ?F ?P ?ts WHERE { u0 fo ?F [?fts, ?fte) . ?F po ?P [?ts, ?te) }",
])
def test_explicit_distributed_modes_answer_what_in_place_answers(engine,
                                                                 text):
    """``auto`` never distributes a quintuple plan, but the kernel is an
    ordinary step kernel: asked to, it partitions an index start by
    owner and follows routed batches."""
    kinds = [step.kind for step in plan_query(parse_query(text)).steps]
    rows = {mode: sorted(run_forced(engine, text, kinds, mode)[0].rows)
            for mode in ("in_place", "fork_join", "migrate")}
    assert rows["in_place"] and \
        rows["in_place"] == rows["fork_join"] == rows["migrate"]


def run_forced(engine, text, kinds, mode="auto"):
    """``text``'s patterns in written order under the given step kinds
    (the planner never gives a pattern with a constant a bound kind)."""
    query = parse_query(text)
    plan = ExecutionPlan(
        query, [PlannedStep(pattern, kind)
                for pattern, kind in zip(query.patterns, kinds)],
        order=tuple(range(len(kinds))))
    meter = LatencyMeter()
    result = GraphExplorer(engine.cluster, engine.strings).execute(
        plan, persistent_factory(engine.store,
                                 engine.coordinator.stable_sn),
        meter, home_node=0, mode=mode)
    return result, meter


def test_unknown_constant_on_a_bound_step_probe_then_resolve(engine):
    kinds = [CONST_SUBJECT, BOUND_SUBJECT]
    anchor_only, _ = run_forced(engine, "SELECT ?F WHERE { u0 fo ?F }",
                                kinds[:1])
    assert len(anchor_only.rows) == 2  # two starts for the bound step
    quintuple, quintuple_meter = run_forced(
        engine, "SELECT ?F ?ts WHERE { u0 fo ?F . ?F po nobody [?ts, ?te) }",
        kinds)
    plain, plain_meter = run_forced(
        engine, "SELECT ?F WHERE { u0 fo ?F . ?F po nobody }", kinds)
    assert quintuple.rows == plain.rows == []
    # Same first step; the quintuple step then pays one probe per start
    # before it learns that the constant is unknown, the suffix-less
    # step learns it first and probes nothing.
    probe = engine.cluster.cost.hash_probe_ns * 1000
    assert quintuple_meter.breakdown_ps["store"] - \
        plain_meter.breakdown_ps["store"] >= 2 * probe
    # A known constant on the same forced shape matches per version.
    known, _ = run_forced(
        engine, "SELECT ?F ?ts WHERE { u0 fo ?F . ?F po t1 [?ts, ?te) }",
        kinds)
    assert decode_result(known, engine.strings, {"?ts"}) == \
        [("u1", 2), ("u0", 2)]


@pytest.mark.parametrize("text", [
    "SELECT ?X ?ts WHERE { ?X fo ?X [?ts, ?te) }",
    "SELECT ?X ?Y ?ts WHERE { ?X fo ?Y . ?Y fo ?Y [?ts, ?te) }",
])
def test_one_variable_on_both_sides_constrains_the_match(engine, text):
    record = engine.oneshot(text, home_node=0)
    ast = parse_query(text)
    decoded = decode_result(record.result, engine.strings,
                            set(ast.interval_variables()))
    assert sorted(decoded) == sorted(reference_rows(
        ast, dump_history(engine.store), record.snapshot))
    assert {row[0] for row in decoded} == {"u0"}
