"""Ablation (§4.3): the SN-plan width — staleness vs injection flexibility.

The width of each SN->VTS mapping is the paper's explicit trade-off knob:
width 1 keeps one-shot results freshest but serializes injection across
streams; larger widths let unbalanced injectors run ahead while one-shot
queries read staler snapshots.  This ablation sweeps the width and
measures, at the end of the run, how many already-inserted batches the
stable snapshot lags behind (staleness) and how many live SN segments the
store carries (the memory side of bounded scalarization).
"""

from repro.bench.harness import build_wukongs, format_table

from common import large_lsbench

WIDTHS = (1, 2, 4, 8)
DURATION_MS = 3_000


def run_experiment():
    bench = large_lsbench()
    out = {}
    for width in WIDTHS:
        engine = build_wukongs(bench, num_nodes=4, duration_ms=DURATION_MS)
        engine.coordinator.plan_width = width
        engine.run_until(DURATION_MS)
        stable_vts = engine.coordinator.stable_vts()
        plan = engine.coordinator.plan
        stable_sn = engine.coordinator.stable_sn
        covered = plan.requirement_for(stable_sn) if stable_sn else \
            {s: 0 for s in plan.streams}
        staleness = {stream: stable_vts.get(stream) - covered[stream]
                     for stream in plan.streams}
        segments = sum(shard.segments(key)
                       for shard in engine.store.shards
                       for key in shard.iter_keys())
        keys = sum(shard.num_keys for shard in engine.store.shards)
        out[width] = {
            "staleness_batches": max(staleness.values()),
            "segments_per_key": segments / max(1, keys),
            "stable_sn": stable_sn,
        }
    return out


def test_ablation_plan_width(benchmark, report):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = [[f"width {w}",
             measured[w]["stable_sn"],
             measured[w]["staleness_batches"],
             f"{measured[w]['segments_per_key']:.3f}"]
            for w in WIDTHS]
    report(format_table(
        "Ablation: SN-plan width (staleness vs flexibility)",
        ["Plan width", "stable SN", "stale batches", "SN segs/key"],
        rows,
        note="wider mappings admit more batches per snapshot: fewer "
             "snapshots, more stale batches behind the readable one"))

    # Wider plans leave more inserted-but-unreadable batches...
    assert measured[8]["staleness_batches"] >= \
        measured[1]["staleness_batches"]
    # ...and advance through fewer snapshot numbers.
    assert measured[8]["stable_sn"] < measured[1]["stable_sn"]
    # Bounded scalarization keeps live segments per key small throughout.
    for width in WIDTHS:
        assert measured[width]["segments_per_key"] < 3.0
