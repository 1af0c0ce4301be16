"""End-to-end benchmark of the repository, client proxy down to store.

One run of one workload (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

A set of runs, every metric with median and quartiles (written to
``benchmarks/e2e/out/result.json``)::

    python3 benchmarks/e2e/run.py set [--seed N] [--runs 5] [--workload W]
        [--trace] [--quick] [--record]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py pin          # rewrite expected.json

All timing is host wall time of one driver thread; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def _bootstrap() -> None:
    """Make ``repro`` importable; pin the hash seed (string-keyed set
    order feeds the simulated totals) by re-executing once."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"{src}/repro not found: run from a checkout of the "
                 f"repository")
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [src, HERE]


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class Phase:
    """Per-step measurements of one measured phase."""

    def __init__(self) -> None:
        self.walls = []
        self.gated = []
        self.work = 0
        #: Time the untimed output check took (oracle and hashing).
        self.check_s = 0.0
        #: The process's peak RSS when the fixed prefix was done.
        self.prefix_rss_mb = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def measure(workload, seconds: float, tracer=None,
            prefix_only: bool = False) -> Phase:
    """The closed loop: the fixed prefix always, then until ``seconds``
    have passed or the generated stream is out."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = workload.first_step
    while i < workload.last_step and (
            i < workload.prefix_end or
            (not prefix_only and time.perf_counter() < deadline)):
        step = tracer.root(workload.step, i) if tracer is not None \
            else workload.step(i)
        t0 = time.perf_counter()
        workload.check(i, step)
        phase.check_s += time.perf_counter() - t0
        phase.walls.append(step.wall_s)
        if step.gated:
            phase.gated.append(step.wall_s)
        phase.work += step.work
        i += 1
        if i == workload.prefix_end:
            phase.prefix_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    return phase


def check_golden(workload, quick: bool) -> dict:
    """Compare the prefix's semantic outputs with ``expected.json``
    (pinned seed, full durations only); a difference is one failed
    operation."""
    from workloads import PINNED_SEED
    golden = workload.tally.golden(
        sum(workload.offered[workload.first_step:workload.prefix_end]))
    if workload.seed == PINNED_SEED and not quick:
        with open(os.path.join(HERE, "expected.json")) as handle:
            pinned = json.load(handle).get(workload.name)
        workload.tally.attempted += 1
        if pinned != golden:
            workload.tally.fail(f"golden mismatch: expected {pinned}, "
                                f"got {golden}")
    return golden


def run_untraced(workload, seconds: float) -> tuple:
    """End-to-end metrics: set-up repeated, then one measured phase."""
    setups = []
    for _ in range(SETUP_REPEATS):
        workload.release()  # so that two engines are never alive at once
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    gc.collect()
    phase = measure(workload, seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": phase.work / phase.wall_s,
        "op_ms_p50": statistics.median(phase.gated) * 1e3,
        "peak_rss_mb": phase.prefix_rss_mb,
    }
    return metrics, {"steps": len(phase.walls), "setups_s": setups}


def driver_metrics(workload, phase: Phase) -> dict:
    """The workload-specific rates and latencies of an untraced phase
    (ungated: they do not exist on every workload)."""
    from probes import percentile
    from workloads import TICK_MS
    tally, wall = workload.tally, phase.wall_s
    ticks = workload.engine.clock.now_ms // TICK_MS - workload.first_step
    first = workload.first_step
    latency = tally.query_latency_s
    return {
        "driver.tuples_per_s": sum(workload.offered[first:first + ticks])
        / wall,
        "driver.deliveries_per_s": tally.deliveries / wall,
        "driver.queries_per_s": tally.queries / wall,
        "driver.rows_per_s": tally.rows / wall,
        "driver.op_ms_p95": _ms(percentile(phase.gated, 95)),
        "driver.op_ms_p99": _ms(percentile(phase.gated, 99)),
        "driver.query_ms_p50": _ms(percentile(latency, 50)),
        "driver.query_ms_p95": _ms(percentile(latency, 95)),
    }


def run_traced(workload, quick: bool) -> tuple:
    """Per-layer metrics over the fixed prefix, run twice on fresh
    engines: once untraced (reference for pauses, rates, counts and the
    tracing overhead), once with the probes installed."""
    from probes import GcWatch, Tracer, read_counts
    from workloads import TICK_MS, Tally

    workload.setup()  # discarded: the heap's first growth is paid here,
    workload.release()  # not by whichever pass happens to run first
    workload.setup()
    baseline = read_counts(workload)
    gc.collect()
    with GcWatch() as watch:
        plain_phase = measure(workload, 0, prefix_only=True)
    layers = driver_metrics(workload, plain_phase)
    plain_counts = read_counts(workload, baseline)
    golden = check_golden(workload, quick)
    workload.finish()
    plain_tally, workload.tally = workload.tally, Tally()

    workload.release()
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        baseline = read_counts(workload)
        gc.collect()
        traced_phase = measure(workload, 0, tracer=tracer, prefix_only=True)
    finally:
        tracer.uninstall()
    counts = read_counts(workload, baseline)
    traced_tally, workload.tally = workload.tally, plain_tally
    plain_tally.attempted += traced_tally.attempted + 1
    plain_tally.failed += traced_tally.failed
    plain_tally.failures += traced_tally.failures
    if counts != plain_counts or traced_tally.golden(0) != plain_tally.golden(0):
        plain_tally.fail("two passes over the same prefix differ: " + ", ".join(
            k for k in counts if counts[k] != plain_counts[k]))

    names = [span[0] for span in tracer.spans]
    layers.update(tracer.layer_times())
    layers.update(counts)
    ticks = workload.engine.clock.now_ms // TICK_MS - workload.first_step
    layers.update({
        "streams.batches": ticks * len(workload.streams),
        "streams.tuples": golden["tuples"],
        "sparql.parses": names.count("sparql.parse"),
        "sparql.plans": names.count("sparql.plan"),
        "client.rows_decoded": traced_tally.rows,
        "serving.backlog_max": getattr(workload, "backlog_max", None),
        "py.gc_gen2_collections": watch.collections,
        "py.gc_pause_s": watch.pause_s,
        "trace.overhead_ratio": traced_phase.wall_s / plain_phase.wall_s,
        "driver.oracle_s": plain_phase.check_s,
    })
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload.name}.json"), "w") as handle:
        json.dump(tracer.dump(), handle)
    return layers, {"steps": len(traced_phase.walls), "golden": golden,
                    "probes_missing": tracer.missing}


def single(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="durations / 8; never comparable")
    args = parser.parse_args(argv)
    from workloads import WORKLOADS
    declared = _declared()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None \
        else declared["run_seconds"]
    if args.quick:
        seconds /= 8

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    t0 = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - t0
    if args.trace:
        values, detail = run_traced(workload, args.quick)
        values["driver.generate_s"] = generate_s
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values, detail = run_untraced(workload, seconds)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        detail["golden"] = check_golden(workload, args.quick)
        workload.finish()
    tally = workload.tally

    detail.update(workload=args.workload, seed=args.seed, seconds=seconds,
                  trace=args.trace, mode="quick" if args.quick else "full",
                  stream_ms=workload.stream_ms,
                  prefix_steps=workload.prefix_steps,
                  failures=tally.failures,
                  undeclared=sorted(set(values) - set(units)),
                  null=sorted(k for k in units if values.get(k) is None))
    for name in sorted(units):
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:34s} {shown:>14s} {units[name]}")
    for failure in tally.failures:
        print("FAILED:", failure, file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name) or 0, "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# A set of runs
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int,
           quick: bool) -> tuple:
    """One run in a fresh process; returns ``(detail, result)``."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(command)} printed no result (exit "
                 f"{done.returncode}):\n{done.stdout}\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py set")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--quick", action="store_true",
                        help="durations / 8, 2 runs; never comparable")
    parser.add_argument("--record", action="store_true",
                        help="append the set to history.jsonl")
    parser.add_argument("--out", default=os.path.join(OUT, "result.json"))
    args = parser.parse_args(argv)
    declared = _declared()
    names = args.workload or [w["name"] for w in declared["workloads"]]
    runs = 2 if args.quick else args.runs
    seconds = declared["run_seconds"]

    per = {name: {"results": [], "details": []} for name in names}
    # Round-robin: run 1 of every workload, then run 2, ... so a slow
    # spell of the shared machine is spread over all of them.
    for run in range(runs):
        for name in names:
            detail, result = _child(name, args.seed, seconds, 0, args.quick)
            per[name]["results"].append(result)
            per[name]["details"].append(detail)
            print(f"run {run + 1}/{runs} {name}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = _child(name, args.seed, seconds, 1, args.quick)
            print(f"traced {name}", flush=True)

    bounds = {m["name"]: m for m in declared["end_to_end"]}
    report = {"commit": _commit(), "seed": args.seed, "runs": runs,
              "seconds": seconds, "mode": "quick" if args.quick else "full",
              "nproc": os.cpu_count(), "deterministic": True,
              "workloads": {}}
    failed = 0
    for name in names:
        results, details = per[name]["results"], per[name]["details"]
        entry = {"metrics": {}, "layers": {}, "probes_missing": [],
                 "undeclared": sorted({u for d in details
                                       for u in d["undeclared"]}),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "stream_ms": details[0]["stream_ms"],
                 "prefix_steps": details[0]["prefix_steps"],
                 "golden": details[0]["golden"]}
        if any(d["golden"] != entry["golden"] for d in details):
            report["deterministic"] = False
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            entry["metrics"][metric] = {
                "unit": spec["unit"], "values": values, "n": len(values),
                "median": median, "q1": q1, "q3": q3}
        if name in traced:
            detail, result = traced[name]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["probes_missing"] = detail["probes_missing"]
            entry["undeclared"] += detail["undeclared"]
            entry["layers"] = {
                k: None if k in detail["null"] else v["value"]
                for k, v in result["metrics"].items()}
            if detail["golden"] != entry["golden"] or result["failed"]:
                report["deterministic"] = False
        entry["failed_ops_share"] = entry["failed"] / entry["attempted"]
        failed += entry["failed"]
        report["workloads"][name] = entry

    _print_report(report, declared)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    if args.record:
        line = {k: report[k] for k in ("commit", "seed", "nproc", "mode",
                                       "runs", "seconds")}
        line["medians"] = {w: {m: v["median"] for m, v in e["metrics"].items()}
                           for w, e in report["workloads"].items()}
        line["quartiles"] = {w: {m: [v["q1"], v["q3"]]
                                 for m, v in e["metrics"].items()}
                             for w, e in report["workloads"].items()}
        with open(os.path.join(HERE, "history.jsonl"), "a") as handle:
            handle.write(json.dumps(line) + "\n")
    return 1 if failed or not report["deterministic"] else 0


def _commit() -> str:
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_report(report: dict, declared: dict) -> None:
    print(f"\ncommit {report['commit']}  seed {report['seed']}  "
          f"{report['runs']} runs x {report['seconds']} s  mode "
          f"{report['mode']}  nproc {report['nproc']}  deterministic: "
          f"{str(report['deterministic']).lower()}")
    print(f"{'workload':12s} {'metric':28s} {'unit':8s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
    for name, entry in report["workloads"].items():
        for metric, v in entry["metrics"].items():
            print(f"{name:12s} {metric:28s} {v['unit']:8s} "
                  f"{v['median']:12.5g} {v['q1']:12.5g} {v['q3']:12.5g} "
                  f"{v['n']:3d}")
        print(f"{name:12s} {'failed_ops_share':28s} {'ratio':8s} "
              f"{entry['failed_ops_share']:12.5g} "
              f"({entry['failed']} of {entry['attempted']})")
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, entry in report["workloads"].items():
        if entry["probes_missing"]:
            print(f"{name}: probes_missing {entry['probes_missing']}")
        for metric, value in entry["layers"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:12s} {metric:34s} {units[metric]:8s} {shown:>14s}")


# ---------------------------------------------------------------------------
# Comparing two sets
# ---------------------------------------------------------------------------

def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    for key in ("seed", "seconds", "runs", "mode"):
        if base[key] != change[key]:
            sys.exit(f"not comparable: {key} is {base[key]!r} in "
                     f"{args.base} and {change[key]!r} in {args.change}")
    if base["mode"] != "full":
        sys.exit("not comparable: quick sets are never compared")
    bounds = {m["name"]: m for m in _declared()["end_to_end"]}
    verdicts = set()
    print(f"{'workload':12s} {'metric':14s} {'base med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'change/base':>11s} "
          f"{'bound':>6s}  verdict")
    for name, entry in base["workloads"].items():
        other = change["workloads"].get(name)
        if other is None or (other["stream_ms"], other["prefix_steps"]) != \
                (entry["stream_ms"], entry["prefix_steps"]):
            sys.exit(f"not comparable: workload {name} differs in duration")
        for metric, a in entry["metrics"].items():
            b, spec = other["metrics"][metric], bounds[metric]
            verdict = judge(a, b, spec)
            verdicts.add(verdict)
            print(f"{name:12s} {metric:14s} {_quartet(a):>34s} "
                  f"{_quartet(b):>34s} {b['median'] / a['median']:10.4f}x "
                  f"{spec['bound']:6.2f}  {verdict}")
        exact = [k for k, v in entry["layers"].items()
                 if _exact(k) and other["layers"].get(k) != v]
        if entry["golden"] != other["golden"] or exact:
            verdicts.add("moved")
            print(f"{name:12s} counts moved: golden "
                  f"{entry['golden'] == other['golden']}, layers {exact}")
    return 1 if verdicts & {"worse", "unresolved"} else 0


def _quartet(v: dict) -> str:
    return f"{v['median']:.5g} [{v['q1']:.5g}, {v['q3']:.5g}]"


def _exact(metric: str) -> bool:
    """Per-layer metrics that must repeat exactly: counts, ratios of
    counts and simulated statistics — everything that is not host time."""
    return not (metric.endswith("_s") or metric.startswith(("driver.", "py."))
                or metric in ("trace.coverage", "trace.overhead_ratio"))


def judge(a: dict, b: dict, spec: dict) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric
    on one workload (choosing-metrics guide, section 6.5)."""
    sign = 1 if spec["better"] == "lower" else -1
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    a_runs = [sign * v for v in a["values"]]
    b_runs = [sign * v for v in b["values"]]
    interleave = not (max(b_runs) < min(a_runs) or min(b_runs) > max(a_runs))
    # The benchmark contract judges setup_s on medians only (a set-up is
    # too short to repeat within its bound on a shared machine).
    if spread > spec["bound"] and interleave and spec["name"] != "setup_s":
        return "unresolved"
    if worsening > spec["bound"]:
        return "worse"
    return "better" if worsening < -spec["bound"] else "same"


def pin(argv) -> int:
    """Rewrite ``expected.json`` from one run per workload at the pinned
    seed (semantic outputs only: counts and row hashes)."""
    from workloads import PINNED_SEED, WORKLOADS
    path = os.path.join(HERE, "expected.json")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("{}")
    pinned = {name: _child(name, PINNED_SEED, 1, 0, False)[0]["golden"]
              for name in WORKLOADS}
    with open(path, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv) -> int:
    commands = {"set": run_set, "compare": compare, "pin": pin}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return single(argv)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main(sys.argv[1:]))
