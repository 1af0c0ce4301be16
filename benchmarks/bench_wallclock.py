"""Wall-clock benchmark harness: how fast does the simulator itself run?

Every scientific figure of this reproduction is *simulated* nanoseconds,
but producing the figures is real Python executing the real algorithms, so
the wall-clock speed of the hot paths bounds how large a workload the
benchmark suite can afford.  This harness times the three pipeline phases
on a fixed LSBench workload and records the medians in
``BENCH_wallclock.json`` so successive PRs leave a perf trajectory:

``injection``
    Stream batches through Adaptor -> Dispatcher -> Injector -> stream
    index, with no queries registered.

``continuous``
    The same workload with L1-L6 registered: dominated by graph
    exploration and window reads (the headline scenario).

``oneshot``
    S1-S6 one-shot queries over the evolved store.

``distributed``
    The S-query plans executed in the distributed modes (fork-join and
    migrate) on a two-node cluster.  The seed-file entry is the wall
    time of the row-at-a-time kernels on the same executions, frozen at
    the last commit that carried them.

``serving``
    The concurrent-query serving layer: 1024 continuous subscriptions
    registered through the proxies against shared window state
    (common-subplan sharing dedupes them to a few dozen backing
    queries), with multi-tenant one-shot traffic fair-scheduled between
    window closes.  The same workload with sharing disabled — every
    subscription its own backing query — rides along as an
    ``unshared_path`` control run, and the scenario's
    ``speedup_vs_seed`` entry is the unshared-vs-shared ratio (per-query
    evaluation *is* the seed behaviour; no baseline file predates the
    serving layer).  The deterministic simulated-clock figures
    (aggregate throughput, one-shot and close p50/p99/p999) are recorded
    under the scenario's ``simulated`` key.

``adaptive``
    Adaptive re-planning (DESIGN.md §4.10): a skewed two-stream join
    whose hot predicate inverts a fraction of the way in, so the
    registration-time plan starts every post-inversion close from the
    heavy index.  The primary timing is an engine with
    ``adaptive_replan`` on (the plan monitor swaps the join order once
    the statistics prove the skew); the identical workload pinned to the
    cold registration-time order rides along as a ``pinned_path``
    control run, and ``speedup_vs_seed`` is the pinned-vs-adaptive ratio
    (the cold-pinned plan *is* the seed behaviour — re-planning did not
    exist before this scenario).  The swap evidence (replan count,
    orders, simulated per-close cost of both runs) is recorded under
    ``simulated``.

Control runs are recorded per scenario under ``controls_s`` — wall
timings of a same-run reference configuration, kept apart from
``phases_s`` (which breaks the *primary* timing into disjoint phases) so
the smoke gate compares like with like.

Simulated results are guarded separately (``tests/core/test_determinism``):
optimizations must move these numbers and *only* these numbers.

The oneshot scenario additionally reports a per-phase breakdown
(``plan`` / ``explore`` / ``project`` wall seconds, from the engine's
``wall_stats`` instrumentation) so plan-cache and executor changes are
attributable without a profiler run; the continuous scenario likewise
reports ``index_read`` (window-view advances plus columnar stream-index
reads) / ``explore`` / ``project``.

Usage::

    python benchmarks/bench_wallclock.py [--quick] [--out PATH]
        [--baseline PATH] [--profile]

``--quick`` is the CI smoke mode (shorter duration, fewer repeats).  With a
baseline file (default ``benchmarks/BENCH_wallclock_seed.json``, recorded
from the pre-fast-path seed), per-scenario speedups are included.
``--profile`` additionally runs each scenario once under cProfile and
prints the top 20 functions by cumulative time.

Observability modes (no timings are recorded in either)::

    python benchmarks/bench_wallclock.py --trace trace.json [--metrics]
    python benchmarks/bench_wallclock.py --metrics

``--trace PATH`` runs the workload once with the deterministic tracer
attached, writes a Chrome trace-event file (load it in ``chrome://tracing``
or Perfetto; timestamps are *simulated* microseconds) and prints a
flame-style rendering of the slowest one-shot and window activities.
``--metrics`` prints the engine's metrics registry and stats dashboard
after the run.  See DESIGN.md §6, "Observability model".
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import build_wukongs  # noqa: E402
from repro.bench.lsbench import LSBench, LSBenchConfig  # noqa: E402

L_QUERIES = ["L1", "L2", "L3", "L4", "L5", "L6"]
S_QUERIES = ["S1", "S2", "S3", "S4", "S5", "S6"]

SEED_BASELINE = os.path.join(_HERE, "BENCH_wallclock_seed.json")
SEED_BASELINE_QUICK = os.path.join(_HERE, "BENCH_wallclock_seed_quick.json")
DEFAULT_OUT = os.path.join(os.path.dirname(_HERE), "BENCH_wallclock.json")


def _bench():
    return LSBench(LSBenchConfig())


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_injection(duration_ms: int) -> float:
    engine = build_wukongs(_bench(), num_nodes=1, duration_ms=duration_ms)
    return _timed(lambda: engine.run_until(duration_ms))


def run_continuous(duration_ms: int, phases=None) -> float:
    bench = _bench()
    engine = build_wukongs(bench, num_nodes=1, duration_ms=duration_ms)
    for name in L_QUERIES:
        engine.register_continuous(bench.continuous_query(name))
    if phases is not None:
        # Per-phase wall accumulation: window-view advances + columnar
        # stream-index reads ("index_read"), step execution ("explore"),
        # and result projection ("project").
        engine.continuous.wall_stats = phases
        engine.continuous.explorer.wall_stats = phases
    return _timed(lambda: engine.run_until(duration_ms))


def run_continuous_phased(duration_ms: int):
    phases = {}
    elapsed = run_continuous(duration_ms, phases=phases)
    # The access-side "index_read" seconds accrue *inside* the explorer's
    # "explore" span while window-view advances accrue outside it; fold
    # both into one index-read phase and report the explore remainder so
    # the three phases are disjoint.
    reads = phases.pop("index_read", 0.0)
    advance = phases.pop("window_advance", 0.0)
    out = {"index_read": reads + advance,
           "explore": max(0.0, phases.get("explore", 0.0) - reads),
           "project": phases.get("project", 0.0)}
    return elapsed, out


def run_oneshot(duration_ms: int, rounds: int = 10, phases=None) -> float:
    bench = _bench()
    engine = build_wukongs(bench, num_nodes=1, duration_ms=duration_ms)
    engine.run_until(duration_ms)
    queries = [bench.oneshot_query(name) for name in S_QUERIES]
    if phases is not None:
        # Per-phase wall accumulation (plan / explore / project).
        engine.oneshot_engine.wall_stats = phases
        engine.oneshot_engine.explorer.wall_stats = phases

    def execute_all():
        for _ in range(rounds):
            for text in queries:
                engine.oneshot(text)

    return _timed(execute_all)


def run_oneshot_phased(duration_ms: int):
    phases = {}
    elapsed = run_oneshot(duration_ms, phases=phases)
    return elapsed, phases


def run_distributed(duration_ms: int, rounds: int = 5) -> float:
    """The S-query plans in the *distributed* modes.

    Two nodes force real fork-join (index starts) and migrate (constant
    starts) executions; simulated charges are pinned by the goldens, so
    the only thing this scenario measures is how fast the Python gets
    through them.
    """
    from repro.sim.cost import LatencyMeter
    from repro.sparql.parser import parse_query
    from repro.sparql.planner import INDEX_START
    from repro.store.distributed import PersistentAccess
    from repro.store.executor import GraphExplorer

    bench = _bench()
    engine = build_wukongs(bench, num_nodes=2, duration_ms=duration_ms)
    engine.run_until(duration_ms)
    sn = engine.coordinator.stable_sn
    plans = [engine.oneshot_engine.plan(
        parse_query(bench.oneshot_query(name))) for name in S_QUERIES]
    modes = ["fork_join" if plan.steps and plan.steps[0].kind == INDEX_START
             else "migrate" for plan in plans]

    def factory(node_id):
        access = PersistentAccess(engine.store, home_node=node_id,
                                  max_sn=sn)
        return lambda pattern: access

    explorer = GraphExplorer(engine.cluster, engine.store.strings)

    def execute_all(times):
        for _ in range(times):
            for plan, mode in zip(plans, modes):
                explorer.execute(plan, factory, LatencyMeter(), mode=mode)

    # Warm the adjacency-segment caches once so the timed rounds do not
    # pay the cold ``lookup`` misses.
    execute_all(1)
    return _timed(lambda: execute_all(rounds))


#: Serving-scenario shape: enough subscriptions to exercise the paper's
#: "thousands of registered queries" serving story, deduped by plan
#: sharing to a few dozen backing queries.
SERVING_SUBSCRIPTIONS = 1_024
SERVING_TENANTS = 8


def _serving_run(duration_ms: int, sharing: bool):
    """One serving run; returns the layer after the drive loop.

    The tiny dataset keeps the *unshared* control affordable (1024
    backing queries closing windows every 300 ms); what the scenario
    times is the serving layer — registration, sharing, fan-out, fair
    scheduling — not raw engine throughput, which ``continuous`` and
    ``oneshot`` already cover at full scale.
    """
    from repro.serving import AdmissionPolicy, ServingLayer

    bench = LSBench(LSBenchConfig.tiny())
    engine = build_wukongs(bench, num_nodes=2, duration_ms=duration_ms)
    policy = AdmissionPolicy(oneshot_slots_per_tick=32)
    serving = ServingLayer(engine, policy=policy, sharing=sharing)
    tenants = [f"tenant{i}" for i in range(SERVING_TENANTS)]
    for i in range(SERVING_SUBSCRIPTIONS):
        text = bench.continuous_query(f"L{1 + i % 4}",
                                      start_user=(i // 4) % 13,
                                      range_ms=600, step_ms=300)
        serving.register(tenants[i % SERVING_TENANTS], text)
    ticks = duration_ms // 100
    for tick in range(ticks):
        for j in range(4):
            serving.submit(tenants[(tick + j) % SERVING_TENANTS],
                           bench.oneshot_query(f"S{1 + (tick + j) % 3}",
                                               start_user=j))
        serving.tick()
    serving.tick()  # drain the final tick's submissions
    return serving


def run_serving(duration_ms: int):
    """Shared-serving wall time, with the unshared control riding along.

    Both runs serve the identical workload and produce identical
    per-subscriber results (``tests/serving/test_sharing_property.py``
    proves it); the wall-time gap is the executions the shared run never
    ran.  Simulated figures are taken from the shared run — they are
    deterministic, so one copy suffices.
    """
    shared_box = {}

    def shared_run():
        shared_box["serving"] = _serving_run(duration_ms, sharing=True)

    shared_elapsed = _timed(shared_run)
    unshared_elapsed = _timed(
        lambda: _serving_run(duration_ms, sharing=False))
    serving = shared_box["serving"]
    snapshot = serving.snapshot()
    seconds = duration_ms / 1_000.0
    simulated = {
        "subscriptions": snapshot.subscriptions,
        "shared_queries": snapshot.shared_queries,
        "sharing_ratio": round(snapshot.subscriptions
                               / max(1, snapshot.shared_queries), 2),
        "closes_evaluated": snapshot.closes_evaluated,
        "results_delivered": snapshot.results_delivered,
        "executions_saved": snapshot.executions_saved,
        "oneshots_served": snapshot.oneshots_served,
        "throughput_per_s": round(
            (snapshot.results_delivered + snapshot.oneshots_served)
            / seconds, 1),
        "oneshot_latency_ms": serving.latency_percentiles("oneshot"),
        "close_latency_ms": serving.latency_percentiles("close"),
    }
    return (shared_elapsed, None, {"unshared_path": unshared_elapsed},
            simulated)


#: Adaptive-scenario shape: per-tick tuple rates of the heavy and light
#: streams.  The skew inverts an eighth of the way in, so the cold
#: registration-time plan spends most of the run exploring from the
#: heavy index unless the monitor swaps it.
ADAPTIVE_HEAVY_RATE = 128
ADAPTIVE_LIGHT_RATE = 8
#: Identical continuous queries registered per run: injection cost is
#: paid once, so more copies weight the wall clock toward the per-close
#: exploration the plan swap actually changes.
ADAPTIVE_COPIES = 12

ADAPTIVE_QUERY = """
    REGISTER QUERY ADAPT{n} AS
    SELECT ?U ?L
    FROM A [RANGE 1000ms STEP 100ms]
    FROM B [RANGE 1000ms STEP 100ms]
    WHERE {{
        GRAPH A {{ ?U pa ?P }}
        GRAPH B {{ ?L pb ?P }}
    }}
"""


def _skew_tuples(duration_ms: int):
    """Two streams whose hot predicate inverts after the warm-up ticks.

    Objects are mostly unique (join fan-outs ~1, so plan cost is
    dominated by the index-start size) plus one shared hot id per tick
    so every close still joins rows.
    """
    ticks = duration_ms // 100
    invert_at = max(2, ticks // 8)
    pa, pb = [], []
    na = nb = 0
    for tick in range(1, ticks + 1):
        at = 100 * (tick - 1) + 10
        if tick <= invert_at:
            pa_rate, pb_rate = ADAPTIVE_LIGHT_RATE, ADAPTIVE_HEAVY_RATE
        else:
            pa_rate, pb_rate = ADAPTIVE_HEAVY_RATE, ADAPTIVE_LIGHT_RATE
        pa.append(f"ax{tick} pa h{tick % 3} @{at}")
        pb.append(f"bx{tick} pb h{tick % 3} @{at}")
        # Offsets capped so a tick's tuples never spill past the next
        # tick's base timestamp (timestamps must be non-decreasing).
        for i in range(pa_rate):
            pa.append(f"a{na} pa p{na} @{at + 1 + min(i, 88)}")
            na += 1
        for i in range(pb_rate):
            pb.append(f"b{nb} pb q{nb} @{at + 1 + min(i, 88)}")
            nb += 1
    return "\n".join(pa), "\n".join(pb)


def _adaptive_engine(duration_ms: int, adaptive: bool, fixed_order=None):
    from repro.core.engine import EngineConfig, WukongSEngine
    from repro.rdf.parser import parse_timed_tuples
    from repro.streams.source import StreamSource
    from repro.streams.stream import StreamSchema

    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          adaptive_replan=adaptive, replan_check_closes=2)
    engine = WukongSEngine(schemas=[StreamSchema("A"), StreamSchema("B")],
                           config=config)
    pa_text, pb_text = _skew_tuples(duration_ms)
    for name, text in (("A", pa_text), ("B", pb_text)):
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(parse_timed_tuples(text), 0, 100)
        engine.attach_source(source)
    handles = [engine.register_continuous(ADAPTIVE_QUERY.format(n=n),
                                          fixed_order=fixed_order)
               for n in range(ADAPTIVE_COPIES)]
    return engine, handles


def run_adaptive(duration_ms: int):
    """Adaptive re-planning vs the cold-pinned plan on a skew inversion.

    Both runs serve the identical stream; the adaptive engine's plan
    monitor swaps the join order once the statistics prove the inverted
    skew, while the control stays pinned to the registration-time order
    (``fixed_order``, exactly how golden workloads opt out).  The wall
    gap is the Python the swapped plan never executes; the simulated
    per-close costs of both runs ride along as swap evidence.
    """
    runs = {}

    def one_run(key, adaptive, fixed_order=None):
        def run():
            engine, query_handles = _adaptive_engine(duration_ms, adaptive,
                                                     fixed_order)
            engine.run_until(duration_ms)
            runs[key] = query_handles
        return run

    adaptive_elapsed = _timed(one_run("adaptive", adaptive=True))
    pinned_elapsed = _timed(one_run("pinned", adaptive=False,
                                    fixed_order=[0, 1]))
    handle = runs["adaptive"][0]
    first = handle.replans[0] if handle.replans else None
    adaptive_ns = sum(r.meter.ns
                      for h in runs["adaptive"] for r in h.executions)
    pinned_ns = sum(r.meter.ns
                    for h in runs["pinned"] for r in h.executions)
    simulated = {
        "replans": sum(len(h.replans) for h in runs["adaptive"]),
        "initial_order": list(first.old_order) if first
        else list(handle.plan_order),
        "final_order": list(handle.plan_order),
        "swap_close": first.close_index if first else None,
        "estimated_improvement": round(first.estimated_improvement, 2)
        if first else None,
        "closes": len(handle.executions),
        "adaptive_close_ms_total": round(adaptive_ns / 1e6, 3),
        "pinned_close_ms_total": round(pinned_ns / 1e6, 3),
        "simulated_speedup": round(pinned_ns / adaptive_ns, 2)
        if adaptive_ns else None,
    }
    return adaptive_elapsed, None, {"pinned_path": pinned_elapsed}, simulated


def run_temporal(duration_ms: int, rounds: int = 8):
    """SPARQL-T temporal queries (DESIGN.md §8).

    The primary timing is a deep-history *interval* workload — T2/T3
    range selections over the full retained ``?ts`` history (numeric
    FILTERs and a constant-interval ``OVERLAPS``) plus T4 two-hop
    quintuple joins from several start users — run, like every query,
    by the graph explorer (quintuple steps on its version-carrying
    kernel).  The seed-file entry is the wall time of the row-based
    interval evaluator on the same workload, frozen at the last commit
    that carried it (the interval family ran row-based before it went
    columnar).  Scalarization is
    disabled so the full version history stays readable; the timed set
    runs with warm parse and compiled-plan caches.

    The S1-S6 set as ``FROM SNAPSHOT <latest>`` twins vs their plain
    one-shots rides along as the ``snapshot_latest`` / ``oneshot_plain``
    control pair: their ~1.0x ratio is the temporal subsystem's overhead
    figure (snapshot validation + pinning + the counting access).
    """
    bench = _bench()
    engine = build_wukongs(bench, num_nodes=1, duration_ms=duration_ms,
                           scalarization=False)
    engine.run_until(duration_ms)
    stable = engine.coordinator.stable_sn
    temporal = engine.temporal

    # Deep-history interval workload: full-range and half-range ?ts
    # selections, both FILTER phrasings, plus quintuple joins.
    hi = max(2, stable)
    mid = max(1, stable // 2)
    interval = [
        bench.temporal_query("T2", ts_from=1, ts_to=hi),
        bench.temporal_query("T3", ts_from=1, ts_to=hi),
        bench.temporal_query("T2", ts_from=mid, ts_to=hi),
        bench.temporal_query("T3", ts_from=1, ts_to=max(2, mid)),
    ]
    interval += [bench.temporal_query("T4", start_user=user)
                 for user in range(4)]

    def run_set(queries, times):
        for _ in range(times):
            for text in queries:
                engine.oneshot(text)

    # Warm once (parse cache, compiled interval plans, adjacency
    # segments) so the timed set pays no cold misses.
    run_set(interval, 1)

    per_round = len(interval)
    elapsed = _timed(lambda: run_set(interval, rounds))
    records = temporal.records[-rounds * per_round:]

    # The overhead control: FROM SNAPSHOT <latest> twins vs
    # their plain one-shots (bit-identical charges; ~1.0x wall).
    plain = [bench.oneshot_query(name) for name in S_QUERIES]
    snapshot = [text.replace("WHERE", f"FROM SNAPSHOT <{stable}> WHERE", 1)
                for text in plain]
    run_set(snapshot + plain, 1)
    snapshot_elapsed = _timed(lambda: run_set(snapshot, rounds))
    plain_elapsed = _timed(lambda: run_set(plain, rounds))

    simulated = {
        "stable_sn": stable,
        "interval_workload": {
            "queries": per_round,
            "executions": len(records),
            "rows": sum(r.row_count for r in records),
            "snapshot_reads": sum(r.snapshot_reads for r in records),
            "version_entries": sum(r.version_entries for r in records),
            "max_chain_depth": max((r.max_chain_depth for r in records),
                                   default=0),
            "simulated_ms_total": round(sum(r.meter.ns
                                            for r in records) / 1e6, 3),
        },
        "plan_cache": {
            "hits": engine.pipeline.plan_hits["interval"],
            "misses": engine.pipeline.plan_misses["interval"],
            "evictions": engine.pipeline.plans.evictions,
        },
    }
    return elapsed, None, {
        "snapshot_latest": snapshot_elapsed,
        "oneshot_plain": plain_elapsed,
    }, simulated


SCENARIOS = {
    "injection": run_injection,
    "continuous": run_continuous_phased,
    "oneshot": run_oneshot_phased,
    "distributed": run_distributed,
    "serving": run_serving,
    "adaptive": run_adaptive,
    "temporal": run_temporal,
}

#: Scenarios whose seed behaviour is a same-run control path, not a
#: baseline file: control name -> the speedup is control / median.
SELF_BASELINED = {"serving": "unshared_path", "adaptive": "pinned_path"}


def measure(duration_ms: int, repeats: int) -> dict:
    """Run every scenario ``repeats`` times; medians per scenario.

    Runner protocol: a bare float is the wall seconds of the primary
    configuration; tuple returns extend it positionally with ``phases``
    (disjoint breakdown of the primary timing), ``controls``
    (same-run reference configurations, e.g. the unshared serving
    layer), and
    ``simulated`` (deterministic simulated-clock figures — identical
    across repeats, so the last copy is every copy).
    """
    results = {}
    for name, runner in SCENARIOS.items():
        runs = []
        phase_runs = {}
        control_runs = {}
        simulated = None
        for _ in range(repeats):
            run = runner(duration_ms)
            if isinstance(run, tuple):
                run, phases, controls, sim = \
                    run + (None,) * (4 - len(run))
                for phase, value in (phases or {}).items():
                    phase_runs.setdefault(phase, []).append(value)
                for control, value in (controls or {}).items():
                    control_runs.setdefault(control, []).append(value)
                if sim is not None:
                    simulated = sim
            runs.append(run)
        results[name] = {
            "median_s": statistics.median(runs),
            "runs_s": runs,
        }
        print(f"{name:12s} median {results[name]['median_s']:.3f}s "
              f"({', '.join(f'{r:.3f}' for r in runs)})", flush=True)
        for key, samples in (("phases_s", phase_runs),
                             ("controls_s", control_runs)):
            if not samples:
                continue
            medians = {part: statistics.median(values)
                       for part, values in samples.items()}
            results[name][key] = medians
            breakdown = ", ".join(f"{part} {medians[part]:.3f}s"
                                  for part in sorted(medians))
            print(f"{'':12s} {key.split('_')[0]}: {breakdown}", flush=True)
        if simulated is not None:
            results[name]["simulated"] = simulated
            if "oneshot_latency_ms" in simulated:
                oneshot = simulated["oneshot_latency_ms"]
                print(f"{'':12s} simulated: "
                      f"{simulated.get('throughput_per_s', 0):g} results/s, "
                      f"oneshot p50 {oneshot.get('p50_ms', 0):.3f}ms "
                      f"p99 {oneshot.get('p99_ms', 0):.3f}ms "
                      f"p99.9 {oneshot.get('p99_9_ms', 0):.3f}ms",
                      flush=True)
            else:
                pairs = ", ".join(f"{key}={value}"
                                  for key, value in simulated.items())
                print(f"{'':12s} simulated: {pairs}", flush=True)
    return results


def run_traced(duration_ms: int, trace_path=None,
               show_metrics: bool = False) -> None:
    """One traced run of the continuous + one-shot workload.

    Uses two nodes so fork-join queries appear in the trace.  Tracing is
    zero-cost in simulated time but not in wall time, so this mode never
    records timings.
    """
    from repro.core.stats import collect_stats
    from repro.obs import collect_metrics, render_flame, write_chrome_trace

    bench = _bench()
    engine = build_wukongs(bench, num_nodes=2, duration_ms=duration_ms)
    engine.enable_observability()
    for name in L_QUERIES:
        engine.register_continuous(bench.continuous_query(name))
    engine.run_until(duration_ms)
    for name in S_QUERIES:
        engine.oneshot(bench.oneshot_query(name))

    if trace_path:
        write_chrome_trace(engine.tracer, trace_path)
        print(f"wrote {trace_path} ({len(engine.tracer.spans)} spans)")
        for kind in ("oneshot", "window"):
            activities = engine.tracer.activities(kind)
            if activities:
                slowest = max(activities, key=lambda span: span.ns)
                print(f"\nslowest {kind} activity:")
                print(render_flame(engine.tracer.spans, slowest))
    if show_metrics:
        collect_metrics(engine)
        print("\n== metrics ==")
        print(engine.metrics.render())
        print("\n== engine stats ==")
        print(collect_stats(engine).format())


def profile_scenarios(duration_ms: int, top: int = 20) -> None:
    """Run each scenario once under cProfile; print top-N by cumtime."""
    for name, runner in SCENARIOS.items():
        print(f"\n--- profile: {name} ---", flush=True)
        profiler = cProfile.Profile()
        profiler.enable()
        runner(duration_ms)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shorter duration, 3 repeats")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compute speedups against")
    parser.add_argument("--profile", action="store_true",
                        help="also run each scenario once under cProfile "
                             "and print the top 20 functions by cumtime")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="run once with the tracer attached, write a "
                             "Chrome trace-event file and print flame "
                             "renderings (records no timings)")
    parser.add_argument("--metrics", action="store_true",
                        help="run once and print the metrics registry and "
                             "stats dashboard (records no timings)")
    args = parser.parse_args(argv)

    if args.trace or args.metrics:
        run_traced(1_500 if args.quick else 2_500,
                   trace_path=args.trace, show_metrics=args.metrics)
        return 0

    if args.baseline is None:
        args.baseline = SEED_BASELINE_QUICK if args.quick else SEED_BASELINE
    duration_ms = 1_500 if args.quick else 2_500
    repeats = 3 if args.quick else 5
    if args.profile:
        profile_scenarios(duration_ms)
    results = measure(duration_ms, repeats)

    report = {
        "mode": "quick" if args.quick else "full",
        "duration_ms": duration_ms,
        "repeats": repeats,
        "scenarios": results,
    }
    speedups = {}
    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if baseline.get("mode") == report["mode"]:
            for name, result in results.items():
                base = baseline.get("scenarios", {}).get(name)
                if base and result["median_s"] > 0:
                    speedups[name] = base["median_s"] / result["median_s"]
            report["baseline"] = {
                name: base["median_s"]
                for name, base in baseline.get("scenarios", {}).items()
            }
    # Self-baselined scenarios predate no seed baseline: each one's
    # reference is the control path it replaced, timed in the same run.
    for name, control_name in SELF_BASELINED.items():
        result = results.get(name)
        if result and result["median_s"] > 0:
            control = result.get("controls_s", {}).get(control_name)
            if control:
                speedups[name] = control / result["median_s"]
    if speedups:
        report["speedup_vs_seed"] = speedups
        for name, speedup in sorted(speedups.items()):
            print(f"{name:12s} speedup vs seed: {speedup:.2f}x",
                  flush=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
