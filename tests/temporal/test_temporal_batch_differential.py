"""Quintuple steps and interval FILTERs: random rows vs the oracle,
frozen charges.

Over random ingestion histories and random quintuple/interval queries the
executor's version-carrying kernel (``GraphExplorer._expand_versions_batch``,
reached through ``engine.oneshot``) must answer what the brute-force
history oracle (:mod:`repro.temporal.reference`) answers, and a read must
leave the engine state digest where it was — including under a
kill-during-query chaos plan: a node killed and recovered mid-ingestion,
with the interval query running against the replayed store.  The random
queries cover the frozen battery's templates and the shapes only the one
execution path has to get right (:data:`FOLD_TEMPLATES`): suffix-less
steps before and after a quintuple step, an index-start quintuple step
that is not the first step, unknown constants, aliased endpoint
variables, ``LIMIT`` / ``OFFSET``, and histories that insert the same
triple at two snapshots.

Charges are pinned on a fixed seeded battery instead (five query
templates x five operators x eight ``random.Random(0)`` histories on one
and two nodes, the kill plan, and a deep-history LSBench run): rows in
order, meter total, per-category breakdown, traversal counters and state
digest must equal ``golden_kernels.json`` — rows, counters and digests as
frozen at the last commit where a row evaluator ran beside the interval
kernels and agreed, latencies as re-recorded when those kernels were
folded into the executor's (the ``project`` charge; CHANGES.md, PR 18).
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
                                build_posts_engine, seeded_histories,
                                temporal_battery_cases,
                                temporal_deep_cases, temporal_kill_cases)

pytestmark = pytest.mark.temporal

#: Shapes no frozen case has, which the interval kernels and the
#: executor's used to disagree on or could not mix: same placeholders
#: as :data:`INTERVAL_TEMPLATES`; ``nobody`` / ``t99`` are in no history.
FOLD_TEMPLATES = {
    "plain-before":
        "SELECT ?F ?P ?ts WHERE {{ {actor} fo ?F . ?F po ?P [?ts, ?te) "
        "FILTER (?ts >= {lo}) }}",
    "plain-after":
        "SELECT ?P ?ts ?U WHERE {{ {actor} po ?P [?ts, ?te) . ?U po ?P "
        "FILTER ([?ts, ?te) {op} [{lo}, {hi})) }}",
    "plain-before-and-after":
        "SELECT ?F ?P ?ts ?U WHERE {{ {actor} fo ?F . "
        "?F po ?P [?ts, ?te) . ?U po ?P }}",
    "index-not-first":
        "SELECT ?F ?U ?P ?ts WHERE {{ {actor} fo ?F . "
        "?U po ?P [?ts, ?te) FILTER (?ts < {hi}) }}",
    "quintuple-cartesian":
        "SELECT ?Q ?U ?P WHERE {{ {actor} po ?Q [?qts, ?qte) . "
        "?U po ?P [?ts, ?te) FILTER (?ts > ?qts) }}",
    "unknown-other-constant":
        "SELECT ?ts WHERE {{ {actor} po nobody [?ts, ?te) }}",
    "unknown-constant-later-step":
        "SELECT ?F ?ts WHERE {{ {actor} fo ?F [?fts, ?fte) . "
        "?F po t99 [?ts, ?te) }}",
    "unknown-constant-plain-step":
        "SELECT ?P ?ts WHERE {{ {actor} po ?P [?ts, ?te) . {actor} fo nobody }}",
    "both-constants":
        "SELECT ?ts ?te WHERE {{ {actor} po t{lo} [?ts, ?te) }}",
    "shared-te-join":
        "SELECT ?U ?P ?Q WHERE {{ ?U po ?P [?ts, ?te) . "
        "?U po ?Q [?qts, ?te) FILTER (?qts > ?ts) }}",
    "te-aliases-ts":
        "SELECT ?U ?P ?Q WHERE {{ ?U po ?P [?ts, ?te) . "
        "?U po ?Q [?te, ?qte) }}",
}

ALL_TEMPLATES = {**INTERVAL_TEMPLATES, **FOLD_TEMPLATES}


def event_strategy():
    return st.tuples(
        st.sampled_from(USERS),          # actor
        st.integers(0, 5),               # post id
        st.integers(0, 5),               # batch index (1s batches)
    )


def history_strategy(min_size=0, max_size=24):
    """Random events, the first few of them inserted again in a
    different batch: the same ``(s, p, o)`` at two SNs, so one vertex
    matches through two versions."""
    return st.builds(
        lambda events, shifts: events + [
            (actor, post, (batch + shift) % 6)
            for (actor, post, batch), shift in zip(events, shifts)],
        st.lists(event_strategy(), min_size=min_size, max_size=max_size),
        st.lists(st.integers(1, 5), max_size=6))


def query_strategy():
    """Random instances of the battery's interval query templates and of
    :data:`FOLD_TEMPLATES`."""
    return st.builds(
        lambda template, op, lo, width, actor:
        template.format(op=op, lo=lo, hi=lo + width, actor=actor),
        st.sampled_from(sorted(ALL_TEMPLATES.values())),
        st.sampled_from(OPS), st.integers(0, 6), st.integers(1, 6),
        st.sampled_from(USERS))


def slice_strategy():
    """None, or a ``(limit, offset)`` to re-ask the query with."""
    return st.none() | st.tuples(st.integers(0, 5), st.integers(0, 4))


def assert_read_matches_oracle(engine, query_text, sliced=None):
    """Rows equal the oracle's (order-insensitive: the oracle joins in
    written order, the engine in plan order); with ``sliced``, the query
    re-asked under that ``LIMIT`` / ``OFFSET`` answers exactly that slice
    of its own full answer; reads move no state."""
    before = engine_state_digest(engine)
    record = engine.oneshot(query_text, home_node=0)
    assert record.interval_path and engine.temporal.batch_executions >= 1
    ast = parse_query(query_text)
    expected = reference_rows(ast, dump_history(engine.store),
                              record.snapshot)
    decoded = decode_result(record.result, engine.strings,
                            set(ast.interval_variables()))
    assert sorted(map(repr, decoded)) == sorted(map(repr, expected))
    if sliced is not None:
        limit, offset = sliced
        window = engine.oneshot(
            f"{query_text} LIMIT {limit} OFFSET {offset}", home_node=0)
        assert window.result.rows == \
            record.result.rows[offset:offset + limit]
        # Sliced or not, the explored and projected work is the same.
        assert window.meter.ps == record.meter.ps
    assert diff_digests(before, engine_state_digest(engine)) == []


@settings(max_examples=30, deadline=None)
@given(events=history_strategy(), query_text=query_strategy(),
       sliced=slice_strategy())
def test_batch_and_row_interval_paths_identical(events, query_text, sliced):
    engine = build_posts_engine(events)
    engine.run_until(7_000)
    assert_read_matches_oracle(engine, query_text, sliced)


@settings(max_examples=10, deadline=None)
@given(events=history_strategy(min_size=4, max_size=20),
       query_text=query_strategy())
def test_batch_and_row_identical_under_kill_during_query(events, query_text):
    assert_read_matches_oracle(build_killed_posts_engine(events),
                               query_text)


@pytest.mark.parametrize("name", sorted(FOLD_TEMPLATES))
def test_fold_templates_match_oracle_on_seeded_histories(name):
    """Every shape above on fixed histories (so none depends on what
    hypothesis happens to draw), each with its first events re-inserted
    two batches later, on one and two nodes."""
    for num_nodes, events in ((1, seeded_histories()[3]),
                              (2, seeded_histories()[6])):
        events = events + [(actor, post, (batch + 2) % 6)
                           for actor, post, batch in events[:5]]
        engine = build_posts_engine(events, num_nodes=num_nodes)
        engine.run_until(7_000)
        for op, lo, actor in (("OVERLAPS", 1, "u0"), ("AFTER", 3, "u2")):
            text = FOLD_TEMPLATES[name].format(op=op, lo=lo, hi=lo + 3,
                                               actor=actor)
            assert_read_matches_oracle(engine, text, sliced=(3, 1))


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
