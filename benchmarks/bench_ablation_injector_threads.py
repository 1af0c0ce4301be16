"""Ablation (§4.1): multi-threaded injectors.

"When multiple Injector threads are required due to massive streams or
high stream rate, Wukong+S will statically partition the key space of the
store and exclusively assign one partition to one thread."  This sweep
raises the stream rate 4x over the default and measures the per-batch
injection cost of the heaviest stream as injector threads grow.
"""

from repro.bench.harness import build_wukongs, format_table
from repro.bench.metrics import mean

from common import large_lsbench

THREADS = (1, 2, 4, 8)
DURATION_MS = 2_000


def run_experiment():
    bench = large_lsbench()
    rate = bench.config.rate_scale * 4
    out = {}
    for threads in THREADS:
        engine = build_wukongs(bench, num_nodes=4, duration_ms=DURATION_MS,
                               rate_scale=rate, injector_threads=threads)
        engine.run_until(DURATION_MS)
        records = [r for r in engine.injection_records
                   if r.stream == "PO_L" and r.num_tuples > 0]
        out[threads] = {
            # Store-insert time alone: the part threads parallelize
            # (adapt/dispatch/indexing are outside the thread pool).
            "inject_ms": mean([r.meter.breakdown_ms.get("insert", 0.0)
                               for r in records]),
            "total_ms": mean([r.total_ms for r in records]),
            "tuples": mean([r.num_tuples for r in records]),
        }
    return out


def test_ablation_injector_threads(benchmark, report):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = [[f"{threads} threads",
             measured[threads]["inject_ms"],
             measured[threads]["total_ms"],
             f"{measured[1]['inject_ms'] / measured[threads]['inject_ms']:.2f}X"]
            for threads in THREADS]
    report(format_table(
        "Ablation: injector threads (PO_L at 4x rate, per 100 ms batch)",
        ["Threads", "insert ms", "batch total ms", "insert speedup"],
        rows,
        note="key-space partitioning parallelizes the store inserts "
             "without locks; adapt/dispatch/indexing stay serial"))

    assert measured[4]["inject_ms"] < measured[1]["inject_ms"]
    # Lock-free scaling is sub-linear but real.
    speedup = measured[8]["inject_ms"] / measured[1]["inject_ms"]
    assert speedup < 0.7