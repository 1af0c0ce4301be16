"""LSBench temporal queries vs the brute-force reference evaluator.

Both sides read the same store: the engine through its planned
snapshot/interval paths, the reference by exhaustive join over the
dumped version history.  Scalarization is off so the full insertion-SN
history stays readable (exact deep history, frontier pinned at base).
"""

import pytest

from repro.bench.harness import build_wukongs
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.sparql.parser import parse_query
from repro.temporal import dump_history, reference_rows
from repro.temporal.reference import decode_result

pytestmark = pytest.mark.temporal

DURATION_MS = 600


@pytest.fixture(scope="module")
def workload():
    bench = LSBench(LSBenchConfig())
    engine = build_wukongs(bench, num_nodes=2, duration_ms=DURATION_MS,
                           scalarization=False)
    engine.run_until(DURATION_MS)
    history = dump_history(engine.store)
    return bench, engine, history


def check_against_reference(engine, history, text):
    query = parse_query(text)
    record = engine.oneshot(text)
    snapshot = record.snapshot
    got = decode_result(record.result, engine.strings)
    want = reference_rows(query, history, snapshot)
    assert sorted(map(str, got)) == sorted(map(str, want)), text
    return record


@pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4"])
def test_lsbench_temporal_catalogue(workload, name):
    bench, engine, history = workload
    record = check_against_reference(engine, history,
                                     bench.temporal_query(name))
    if name in ("T2", "T3", "T4"):
        assert record.interval_path
        assert record.snapshot_reads > 0


def test_lsbench_snapshot_scoped_catalogue(workload):
    bench, engine, history = workload
    stable = engine.coordinator.stable_sn
    for snapshot in sorted({1, stable // 2, stable}):
        check_against_reference(
            engine, history,
            bench.temporal_query("T1", snapshot=snapshot))


@pytest.mark.parametrize("op,lo,hi", [
    ("OVERLAPS", 1, 3), ("DURING", 0, 4), ("BEFORE", 3, 4),
    ("AFTER", 0, 2), ("STARTS", 2, 3),
])
def test_interval_operators_match_reference(workload, op, lo, hi):
    bench, engine, history = workload
    text = ("SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
            f"FILTER ([?ts, ?te) {op} [{lo}, {hi})) }}")
    check_against_reference(engine, history, text)


def test_open_end_and_numeric_filters_match_reference(workload):
    bench, engine, history = workload
    stable = engine.coordinator.stable_sn
    for text in [
        "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
        "FILTER ([?ts, ?te) OVERLAPS [1, *)) }",
        "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
        f"FILTER (?ts >= 1) FILTER (?ts < {max(2, stable)}) }}",
    ]:
        check_against_reference(engine, history, text)


def test_two_hop_interval_join_matches_reference(workload):
    bench, engine, history = workload
    text = ("SELECT ?F ?P ?fts ?pts WHERE { "
            f"{LSBench.user(0)} fo ?F [?fts, ?fte) . "
            "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }")
    check_against_reference(engine, history, text)


def test_limit_and_offset_respected(workload):
    bench, engine, history = workload
    base = "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) }"
    full = engine.oneshot(base)
    limited = engine.oneshot(base + " LIMIT 3")
    assert len(limited.result.rows) == min(3, len(full.result.rows))
    shifted = engine.oneshot(base + " LIMIT 3 OFFSET 2")
    assert shifted.result.rows == full.result.rows[2:5]
