"""Frozen-verdict tests for the distributed execution modes.

An execution must produce the same rows *in the same order*, charge the
same simulated nanoseconds (bit for bit) and leave the same per-category
breakdown as the last commit at which the columnar kernels and the
row-at-a-time kernels both existed and agreed — in every mode, fork-join
and migrate included, with FILTER schedules, UNION arms and OPTIONAL
groups in the plan.  The cases live in :mod:`store.kernel_cases`, their
verdicts in ``golden_kernels.json``; every case is also checked against
the brute-force oracle as it runs.
"""

from repro.core.stats import collect_stats

from store.kernel_cases import (INDEX_QUERIES, assert_frozen,
                                build_qc_engine, build_xlab,
                                composite_cases, engine_qc_cases,
                                explore_cases, run_xlab, xlab_cases)


def test_fork_join_differential():
    assert_frozen(xlab_cases("rdma3", "fork_join"), "xlab/rdma3/fork_join/")


def test_migrate_differential():
    assert_frozen(xlab_cases("rdma3", "migrate"), "xlab/rdma3/migrate/")


def test_migrate_differential_without_rdma():
    """TCP fabric: migrate is the auto mode and messages replace reads."""
    assert_frozen(xlab_cases("tcp3", "migrate"), "xlab/tcp3/")


def test_union_optional_fallback_differential():
    """UNION arms and OPTIONAL groups (incl. one whose first sub-step is
    an index scan over an already-bound subject) extend one row at a
    time on the same columnar kernels."""
    assert_frozen(xlab_cases("rdma3", "in_place"), "xlab/rdma3/in_place/")


def test_duplicate_edges_differential():
    """Re-inserting an edge at a later snapshot duplicates it in the
    adjacency list; the kernels must detect this (the distinct-rows
    proof fails) and still dedup projected rows."""
    assert_frozen(xlab_cases("dup3", "fork_join"), "xlab/dup3/fork_join/")
    assert_frozen(xlab_cases("dup3", "migrate"), "xlab/dup3/migrate/")
    result, _ = run_xlab(*build_xlab("dup3"), INDEX_QUERIES[0], "fork_join")
    assert len(result.rows) == len(set(result.rows))


def test_explore_seed_shapes():
    """Bare steps over caller-supplied seed rows, as the composite
    baseline embeds them: every step kind over multi-row seeds."""
    assert_frozen(explore_cases(), "explore/")
    assert_frozen(composite_cases(), "composite/")


def test_filter_oneshot_takes_batch_path():
    """A FILTER-bearing one-shot runs columnar end to end."""
    text = "SELECT ?P ?S WHERE { ?U po ?P . ?P sc ?S . FILTER (?S > 2) }"
    result, _ = run_xlab(*build_xlab(), text, "fork_join")
    assert len(result.rows) == 2  # T-13 (5) and T-14 (9)


def test_engine_differential_row_vs_batch():
    """Whole-engine verdicts: injection records, continuous window
    results and one-shot latencies on a two-node engine."""
    assert_frozen(engine_qc_cases(), "engine/qc/")


def test_engine_counters_report_batch_path():
    engine = build_qc_engine()
    engine.run_until(2_000)
    engine.oneshot(
        "SELECT ?X ?S WHERE { Logan po ?X . ?X sc ?S . FILTER (?S > 2) }")
    caches = collect_stats(engine).caches
    assert caches.batch_executions >= 1
    assert caches.row_executions == 0
    assert "executor: " in collect_stats(engine).format()
