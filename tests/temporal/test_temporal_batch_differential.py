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
from repro.rdf.ids import DIR_OUT
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from store.kernel_cases import (INTERVAL_TEMPLATES, OPS, USERS,
                                assert_frozen, build_deep_engine,
                                build_killed_posts_engine,
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
    """Deep-history scale on two nodes (thousands of probes, half of
    them pricing per-byte remote reads, totals in the millions of ns):
    the charges equal the frozen ones, and — the clock being an exact
    integer — the same start column probed in reversed order reads the
    same meter, total and breakdown.  (With a float clock the order of
    the remote reads showed in the last bits at exactly this scale.)"""
    engine = build_deep_engine()
    assert_frozen(temporal_deep_cases(engine), "temporal/deep/")

    store = engine.store
    eid = engine.strings.lookup_predicate("po")
    starts = store.gather_index(0, eid, DIR_OUT, LatencyMeter())
    assert len(starts) >= 1_000
    assert len({vid % 2 for vid in starts}) == 2  # local and remote probes
    readings = []
    for column in (starts, starts[::-1]):
        meter = LatencyMeter()
        fetched = store.neighbors_versions_batch(
            0, column, eid, DIR_OUT, meter,
            max_sn=engine.coordinator.stable_sn)
        assert list(fetched) == column
        readings.append((meter.ps, meter.breakdown_ps))
    assert readings[0] == readings[1]
    assert readings[0][1]["network"] > 0  # per-byte prices took part
