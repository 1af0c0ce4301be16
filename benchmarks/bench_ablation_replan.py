"""Ablation (DESIGN.md §4.10): adaptive re-planning vs the pinned plan.

A skewed two-stream join whose hot predicate inverts an eighth of the
way in, so the registration-time plan starts every later close from the
heavy index.  The plan monitor swaps the join order once the statistics
prove the skew; the control serves the identical stream pinned to the
registration-time order (``fixed_order``, as golden workloads opt out).
Simulated per-close costs are deterministic and asserted; wall times are
printed, never asserted (gated wall numbers come from ``benchmarks/e2e``).
"""

import time

from repro.bench.harness import format_table
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_timed_tuples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

DURATION_MS = 2_500
#: Per-tick tuple rates of the heavy and light streams.
HEAVY_RATE = 128
LIGHT_RATE = 8
#: Identical continuous queries registered per run: injection cost is
#: paid once, so more copies weight the run toward the per-close
#: exploration the plan swap actually changes.
COPIES = 12

QUERY = """
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
            pa_rate, pb_rate = LIGHT_RATE, HEAVY_RATE
        else:
            pa_rate, pb_rate = HEAVY_RATE, LIGHT_RATE
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
    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          adaptive_replan=adaptive, replan_check_closes=2)
    engine = WukongSEngine(schemas=[StreamSchema("A"), StreamSchema("B")],
                           config=config)
    pa_text, pb_text = _skew_tuples(duration_ms)
    for name, text in (("A", pa_text), ("B", pb_text)):
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(parse_timed_tuples(text), 0, 100)
        engine.attach_source(source)
    handles = [engine.register_continuous(QUERY.format(n=n),
                                          fixed_order=fixed_order)
               for n in range(COPIES)]
    return engine, handles


def run_experiment():
    out = {}
    for name, adaptive, order in (("pinned", False, [0, 1]),
                                  ("adaptive", True, None)):
        started = time.perf_counter()
        engine, handles = _adaptive_engine(DURATION_MS, adaptive, order)
        engine.run_until(DURATION_MS)
        out[name] = (time.perf_counter() - started, handles)
    return out


def test_ablation_replan(benchmark, report):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows, close_ps = [], {}
    for name, (wall_s, handles) in measured.items():
        swaps = handles[0].replans
        final = list(handles[0].plan_order)
        initial = list(swaps[0].old_order) if swaps else final
        close_ps[name] = sum(r.meter.ps for h in handles
                             for r in h.executions)
        rows.append([name, close_ps[name] / 1e9,
                     sum(len(h.replans) for h in handles),
                     f"{initial} -> {final}",
                     swaps[0].close_index if swaps else None,
                     f"{wall_s:.2f}"])
    speedup = close_ps["pinned"] / close_ps["adaptive"]
    report(format_table(
        f"Ablation: adaptive re-planning ({COPIES} copies, {DURATION_MS} ms)",
        ["Plan", "sim close total (ms)", "replans", "order", "swap close",
         "wall (s)"], rows,
        note=f"simulated pinned / adaptive = {speedup:.2f}x; wall times "
             "are one run each, printed for information, never gated"))

    # The deterministic half only.
    adapted = measured["adaptive"][1]
    assert all(handle.replans for handle in adapted)
    assert adapted[0].plan_order != adapted[0].replans[0].old_order
    assert speedup > 2
