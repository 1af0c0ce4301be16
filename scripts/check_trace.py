#!/usr/bin/env python
"""Obs CI stage: export a trace from a quick LSBench run and validate it.

Drives a short two-node LSBench workload (continuous L-queries plus the
S one-shots) with the deterministic tracer attached, exports the Chrome
trace-event document, and fails unless:

1. the document passes the trace-event schema check
   (:func:`repro.obs.export.validate_chrome_trace`);
2. the spans reconstructed from the document are lossless
   (same count, identical integer readings); and
3. for **every** traced activity — every one-shot query, window close and
   injection batch — the reconstructed critical path is exact: each
   fork-join section satisfies ``post == pre + critical_branch_ps`` and
   the walked total equals the activity meter's recorded picoseconds
   (integer comparisons).

Usage::

    PYTHONPATH=src python scripts/check_trace.py [--out PATH]
        [--duration-ms N] [--show]

``--out`` keeps the exported trace file (default: a temp file, deleted).
``--show`` prints, from the same run, a flame rendering of the slowest
one-shot and window activity, the metrics registry and the stats
dashboard (DESIGN.md §6).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import build_wukongs  # noqa: E402
from repro.bench.lsbench import LSBench, LSBenchConfig  # noqa: E402
from repro.core.stats import collect_stats  # noqa: E402
from repro.obs import (collect_metrics, critical_path,  # noqa: E402
                       render_flame, spans_from_chrome,
                       validate_chrome_trace, write_chrome_trace)

L_QUERIES = ["L1", "L2", "L3", "L4", "L5", "L6"]
S_QUERIES = ["S1", "S2", "S3", "S4", "S5", "S6"]


def run_traced_workload(duration_ms: int):
    bench = LSBench(LSBenchConfig())
    engine = build_wukongs(bench, num_nodes=2, duration_ms=duration_ms)
    engine.enable_observability()
    for name in L_QUERIES:
        engine.register_continuous(bench.continuous_query(name))
    engine.run_until(duration_ms)
    records = [engine.oneshot(bench.oneshot_query(name))
               for name in S_QUERIES]
    return engine, records


def check_trace(document, original_spans) -> list:
    """All problems found in one exported document (empty = pass)."""
    problems = validate_chrome_trace(document)
    if problems:
        return [f"schema: {p}" for p in problems]

    spans = spans_from_chrome(document)
    if len(spans) != len(original_spans):
        return [f"round-trip lost spans: {len(spans)} != "
                f"{len(original_spans)}"]
    for restored, original in zip(spans, original_spans):
        if (restored.t0 != original.t0 or restored.t1 != original.t1
                or restored.anchor_ms != original.anchor_ms):
            problems.append(
                f"round-trip changed readings of span {original.sid} "
                f"({original.kind}:{original.name})")
    if problems:
        return problems

    activities = [s for s in spans if s.kind == "activity"]
    if not activities:
        return ["trace contains no activities"]
    exact = 0
    for activity in activities:
        path = critical_path(spans, activity)
        if not path.exact:
            problems.append(
                f"{activity.name}#{activity.sid} "
                f"(anchor {activity.anchor_ms}ms): "
                + "; ".join(path.problems))
        else:
            exact += 1
    print(f"critical path exact for {exact}/{len(activities)} activities "
          f"({len(spans)} spans)")
    return problems


def show(engine) -> None:
    """The human-facing view of the traced run."""
    for kind in ("oneshot", "window"):
        slowest = max(engine.tracer.activities(kind), key=lambda s: s.ns)
        print(f"\nslowest {kind} activity:")
        print(render_flame(engine.tracer.spans, slowest))
    collect_metrics(engine)
    print("\n== metrics ==\n" + engine.metrics.render())
    print("\n== engine stats ==\n" + collect_stats(engine).format())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="keep the exported trace at this path")
    parser.add_argument("--duration-ms", type=int, default=1_500,
                        help="simulated workload length (default 1500)")
    parser.add_argument("--show", action="store_true",
                        help="also print flame renderings, the metrics "
                             "registry and the stats dashboard")
    args = parser.parse_args(argv)

    engine, records = run_traced_workload(args.duration_ms)
    keep = args.out is not None
    path = args.out
    if not keep:
        handle = tempfile.NamedTemporaryFile(
            suffix="_trace.json", delete=False)
        handle.close()
        path = handle.name
    try:
        document = write_chrome_trace(engine.tracer, path)
        # Validate what was actually written, not the in-memory dict.
        with open(path) as written:
            document = json.load(written)
        problems = check_trace(document, engine.tracer.spans)

        # The S one-shot records must appear with their exact latencies.
        oneshots = engine.tracer.activities("oneshot")
        tail = oneshots[-len(records):]
        for record, activity in zip(records, tail):
            if activity.labels.get("meter_ps") != record.meter.ps:
                problems.append(
                    f"oneshot#{activity.sid}: recorded meter_ps "
                    f"{activity.labels.get('meter_ps')} != record meter "
                    f"{record.meter.ps}")
    finally:
        if not keep:
            os.unlink(path)

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("trace check passed")
    if args.show:
        show(engine)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
