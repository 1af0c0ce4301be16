"""Interval kernels: random rows vs the oracle, frozen charges.

Over random ingestion histories and random quintuple/interval queries the
columnar interval kernels (:mod:`repro.temporal.kernels`) must answer
what the brute-force history oracle (:mod:`repro.temporal.reference`)
answers, and a read must leave the engine state digest where it was —
including under a kill-during-query chaos plan: a node killed and
recovered mid-ingestion, with the interval query running against the
replayed store.

Charges are pinned on a fixed seeded battery instead (five query
templates x five operators x eight ``random.Random(0)`` histories on one
and two nodes, the kill plan, and a deep-history LSBench run): rows in
order, meter total, per-category breakdown, traversal counters and state
digest must equal ``golden_kernels.json``, frozen at the last commit
where a row evaluator ran beside these kernels and agreed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.state import diff_digests, engine_state_digest
from repro.sparql.parser import parse_query
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from store.kernel_cases import (INTERVAL_TEMPLATES, OPS, USERS,
                                assert_frozen, build_killed_posts_engine,
                                build_posts_engine, temporal_battery_cases,
                                temporal_deep_cases, temporal_kill_cases)

pytestmark = pytest.mark.temporal


def event_strategy():
    return st.tuples(
        st.sampled_from(USERS),          # actor
        st.integers(0, 5),               # post id
        st.integers(0, 5),               # batch index (1s batches)
    )


def query_strategy():
    """Random instances of the battery's interval query templates."""
    return st.builds(
        lambda template, op, lo, width, actor:
        template.format(op=op, lo=lo, hi=lo + width, actor=actor),
        st.sampled_from(sorted(INTERVAL_TEMPLATES.values())),
        st.sampled_from(OPS), st.integers(0, 6), st.integers(1, 6),
        st.sampled_from(USERS))


def assert_read_matches_oracle(engine, query_text):
    """Rows equal the oracle's (order-insensitive: the oracle joins in
    written order, the engine in plan order); the read moves no state."""
    before = engine_state_digest(engine)
    record = engine.oneshot(query_text)
    assert record.interval_path and engine.temporal.batch_executions >= 1
    ast = parse_query(query_text)
    expected = reference_rows(ast, dump_history(engine.store),
                              record.snapshot)
    decoded = decode_result(record.result, engine.strings,
                            set(ast.interval_variables()))
    assert sorted(map(repr, decoded)) == sorted(map(repr, expected))
    assert diff_digests(before, engine_state_digest(engine)) == []


@settings(max_examples=12, deadline=None)
@given(events=st.lists(event_strategy(), max_size=24),
       query_text=query_strategy())
def test_batch_and_row_interval_paths_identical(events, query_text):
    engine = build_posts_engine(events)
    engine.run_until(7_000)
    assert_read_matches_oracle(engine, query_text)


@settings(max_examples=6, deadline=None)
@given(events=st.lists(event_strategy(), min_size=4, max_size=20),
       query_text=query_strategy())
def test_batch_and_row_identical_under_kill_during_query(events, query_text):
    assert_read_matches_oracle(build_killed_posts_engine(events),
                               query_text)


@pytest.mark.parametrize("num_nodes", [1, 2])
def test_seeded_battery_matches_frozen_charges(num_nodes):
    assert_frozen(temporal_battery_cases(num_nodes),
                  f"temporal/battery/n{num_nodes}/")


def test_seeded_battery_under_kill_matches_frozen_charges():
    assert_frozen(temporal_kill_cases(), "temporal/kill/")


def test_deep_multi_node_meters_identical():
    """Regression: on a multi-node cluster, fractional remote-read
    charges do not commute with the integer binding charges between
    probes.  An earlier kernel revision aggregated bindings across the
    whole batch, which moved integers across fractional charges and
    diverged in the meter's last float bits once running totals crossed
    a binade — only visible at deep-history scale (thousands of probes,
    meter totals in the millions of ns).  The kernels preserve the
    frozen probe-vs-binding interleave on multi-node clusters."""
    assert_frozen(temporal_deep_cases(), "temporal/deep/")
