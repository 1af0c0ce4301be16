#!/usr/bin/env python
"""Ablation report: per-phase latency attribution from recorded traces.

Drives a traced two-node LSBench workload (the six continuous L-queries
plus the six S one-shots), reconstructs every activity's critical path
(``repro.obs.analysis``), and aggregates the recorded phase spans into
per-query attribution tables: how much of each query's simulated latency
went to dispatch vs planning vs exploration (including fork-join
sections) vs projection.  This is the measurement behind "which phase
does an optimization actually ablate" — phase totals are exact meter
readings, so two runs of the same workload produce identical tables.

Attribution per activity:

* each PHASE span (``dispatch``, ``plan``, ``explore``, ``project``,
  ``contention``) contributes its recorded duration under its own name;
* JOIN spans (fork-join step groups and the result gather) are summed
  as ``fork-join`` — the phase marks deliberately exclude them;
* any remaining root-track time (e.g. routing and bulk-transfer charges
  between fork-join sections, which no phase mark covers) is reported as
  ``other``.

Window activities carry a ``query=`` label; one-shot activities do not,
so the S one-shots are named by execution order (the driver runs them in
a fixed order after the streaming workload).  After the plain S set the
driver re-runs each S query as its ``FROM SNAPSHOT <latest>`` temporal
twin; the temporal table reports the version-chain traversal behind each
twin (``snapshot_reads``, ``version_entries``, ``max_chain``) from the
temporal engine's execution records, and check mode asserts every twin's
simulated latency is bit-identical to its plain one-shot (DESIGN.md §8).  The window table also
carries a ``replans`` column (the workload runs with adaptive
re-planning enabled): how many times the plan monitor swapped each
continuous query's ordering mid-run — the companion figure to the phase
attribution when judging whether an optimization moved ``explore`` or
the planner moved the plan.

Usage::

    PYTHONPATH=src python scripts/report_ablation.py [--duration-ms N]
        [--json PATH] [--check]

``--check`` is the CI smoke mode: fails unless every traced activity's
critical path is exact, every one-shot shows the plan/explore/project
phases, and both tables are non-empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import build_wukongs  # noqa: E402
from repro.bench.lsbench import LSBench, LSBenchConfig  # noqa: E402
from repro.obs import critical_path  # noqa: E402
from repro.obs.trace import JOIN, PHASE, Span  # noqa: E402

L_QUERIES = ["L1", "L2", "L3", "L4", "L5", "L6"]
S_QUERIES = ["S1", "S2", "S3", "S4", "S5", "S6"]

#: Column order of the attribution tables (phases first, then the
#: derived buckets).  Phases outside this list would land in ``other``.
PHASE_COLUMNS = ["dispatch", "plan", "explore", "fork-join", "project",
                 "contention", "other"]


def run_traced_workload(duration_ms: int):
    """The check_trace workload: L-queries streaming, then S one-shots.

    Runs with ``adaptive_replan`` on so the window table's ``replans``
    column reports live numbers: how often the plan monitor actually
    swapped each query's ordering (0 on a workload whose statistics
    never justify a swap — that is the honest figure, not a dead
    column).
    """
    bench = LSBench(LSBenchConfig())
    engine = build_wukongs(bench, num_nodes=2, duration_ms=duration_ms,
                           adaptive_replan=True)
    engine.enable_observability()
    for name in L_QUERIES:
        engine.register_continuous(bench.continuous_query(name))
    engine.run_until(duration_ms)
    for name in S_QUERIES:
        engine.oneshot(bench.oneshot_query(name))
    # Temporal twins: the same S set pinned at the latest stable SN.
    # Bit-identical charges to the plain runs (asserted in check mode),
    # plus version-chain traversal counters for the temporal table.
    stable = engine.coordinator.stable_sn
    for name in S_QUERIES:
        engine.oneshot(bench.oneshot_query(name).replace(
            "WHERE", f"FROM SNAPSHOT <{stable}> WHERE", 1))
    return engine


def attribute(spans: Sequence[Span], activity: Span) -> Dict[str, float]:
    """Per-phase simulated-ns attribution for one activity."""
    buckets: Dict[str, float] = {}
    for span in spans:
        if span.parent != activity.sid:
            continue
        if span.kind == PHASE:
            name = span.name if span.name in PHASE_COLUMNS else "other"
            buckets[name] = buckets.get(name, 0.0) + span.ns
        elif span.kind == JOIN:
            buckets["fork-join"] = buckets.get("fork-join", 0.0) + span.ns
    total = activity.ns
    residual = total - sum(buckets.values())
    if residual:
        buckets["other"] = buckets.get("other", 0.0) + residual
    buckets["total"] = total
    return buckets


def _merge(rows: List[Dict[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for row in rows:
        for name, ns in row.items():
            merged[name] = merged.get(name, 0.0) + ns
    return merged


def format_table(title: str, rows: Dict[str, Dict[str, float]],
                 counts: Dict[str, int],
                 extra_columns: Dict[str, Dict[str, int]] = None) -> str:
    """One attribution table (values in simulated microseconds).

    ``extra_columns`` appends plain (non-``_us``) integer columns, e.g.
    the window table's per-query re-plan counts.
    """
    extra_columns = extra_columns or {}
    header = ["query", "runs", "total_us"] + \
        [f"{name}_us" for name in PHASE_COLUMNS] + list(extra_columns)
    lines = [title, "  ".join(f"{h:>12}" for h in header)]
    for query in sorted(rows):
        buckets = rows[query]
        runs = counts[query]
        cells = [f"{query:>12}", f"{runs:>12}",
                 f"{buckets.get('total', 0.0) / 1e3 / runs:>12.3f}"]
        for name in PHASE_COLUMNS:
            cells.append(f"{buckets.get(name, 0.0) / 1e3 / runs:>12.3f}")
        for name, values in extra_columns.items():
            cells.append(f"{values.get(query, 0):>12}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def build_report(engine) -> dict:
    """Attribution tables plus critical-path exactness for the run."""
    spans = engine.tracer.spans
    problems: List[str] = []

    def paths_exact(activities):
        exact = 0
        for activity in activities:
            path = critical_path(spans, activity)
            if path.exact:
                exact += 1
            else:
                problems.append(
                    f"{activity.name}#{activity.sid}: "
                    + "; ".join(path.problems))
        return exact

    oneshots = engine.tracer.activities("oneshot")
    windows = engine.tracer.activities("window")
    exact = paths_exact(oneshots) + paths_exact(windows)

    # The driver runs the plain S queries in order after the workload,
    # then their FROM SNAPSHOT twins; name the trailing one-shot
    # activities accordingly (their spans carry no query label).  The
    # twins' inner executions are also one-shot activities — the plain
    # set sits just before them.
    oneshot_rows: Dict[str, Dict[str, float]] = {}
    oneshot_counts: Dict[str, int] = {}
    tail = oneshots[-2 * len(S_QUERIES):-len(S_QUERIES)]
    for name, activity in zip(S_QUERIES, tail):
        oneshot_rows[name] = attribute(spans, activity)
        oneshot_counts[name] = 1

    temporal_rows: Dict[str, Dict[str, float]] = {}
    temporal_matches: Dict[str, bool] = {}
    twins = engine.temporal.records[-len(S_QUERIES):]
    for name, record in zip(S_QUERIES, twins):
        temporal_rows[name] = {
            "total_us": record.meter.ns / 1e3,
            "rows": record.row_count,
            "snapshot_reads": record.snapshot_reads,
            "version_entries": record.version_entries,
            "max_chain": record.max_chain_depth,
        }
        plain_total = oneshot_rows.get(name, {}).get("total", 0.0)
        temporal_matches[name] = record.meter.ns == plain_total

    window_rows: Dict[str, Dict[str, float]] = {}
    window_counts: Dict[str, int] = {}
    for activity in windows:
        query = activity.labels.get("query", "?")
        window_counts[query] = window_counts.get(query, 0) + 1
        window_rows.setdefault(query, [])
    grouped: Dict[str, List[Dict[str, float]]] = \
        {query: [] for query in window_counts}
    for activity in windows:
        grouped[activity.labels.get("query", "?")].append(
            attribute(spans, activity))
    window_rows = {query: _merge(rows) for query, rows in grouped.items()}

    return {
        "oneshots": oneshot_rows,
        "oneshot_counts": oneshot_counts,
        "windows": window_rows,
        "window_counts": window_counts,
        "window_replans": {name: len(handle.replans)
                           for name, handle
                           in engine.continuous.queries.items()},
        "temporal": temporal_rows,
        "temporal_matches": temporal_matches,
        "activities": len(oneshots) + len(windows),
        "exact_paths": exact,
        "problems": problems,
    }


def check_report(report: dict) -> List[str]:
    """CI smoke assertions over a built report (empty = pass)."""
    problems = list(report["problems"])
    if report["exact_paths"] != report["activities"]:
        problems.append(
            f"only {report['exact_paths']}/{report['activities']} "
            f"critical paths are exact")
    if not report["oneshots"]:
        problems.append("no one-shot activities recorded")
    if not report["windows"]:
        problems.append("no window activities recorded")
    for query, buckets in report["oneshots"].items():
        for required in ("dispatch", "plan", "explore", "project"):
            if required not in buckets:
                problems.append(
                    f"one-shot {query}: phase {required!r} missing "
                    f"from its trace")
    for query, buckets in report["windows"].items():
        if "explore" not in buckets:
            problems.append(
                f"window {query}: phase 'explore' missing from its trace")
    if not report["temporal"]:
        problems.append("no temporal twin executions recorded")
    for query, row in report["temporal"].items():
        if row["snapshot_reads"] <= 0:
            problems.append(
                f"temporal twin {query}: no snapshot reads counted")
        if not report["temporal_matches"].get(query, False):
            problems.append(
                f"temporal twin {query}: simulated latency diverged from "
                f"its plain one-shot")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration-ms", type=int, default=1_500,
                        help="simulated workload length (default 1500)")
    parser.add_argument("--json", default=None,
                        help="also write the report as JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke mode: fail on any inexact critical "
                        "path or missing phase")
    args = parser.parse_args(argv)

    engine = run_traced_workload(args.duration_ms)
    report = build_report(engine)

    print(format_table("one-shot queries (simulated us per execution)",
                       report["oneshots"], report["oneshot_counts"]))
    print()
    print(format_table("continuous windows (simulated us per execution, "
                       "mean over runs)",
                       report["windows"], report["window_counts"],
                       extra_columns={"replans": report["window_replans"]}))
    print()
    temporal_header = ["query", "total_us", "rows", "snapshot_reads",
                       "version_entries", "max_chain"]
    lines = ["temporal twins (FROM SNAPSHOT <latest>, simulated us)",
             "  ".join(f"{h:>15}" for h in temporal_header)]
    for query in sorted(report["temporal"]):
        row = report["temporal"][query]
        lines.append("  ".join(
            [f"{query:>15}", f"{row['total_us']:>15.3f}"] +
            [f"{row[name]:>15}" for name in temporal_header[2:]]))
    print("\n".join(lines))
    print()
    print(f"critical path exact for {report['exact_paths']}/"
          f"{report['activities']} activities")

    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print("ablation report check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
