"""Bench smoke gate: fail when a quick run regresses the committed report.

Compares ``speedup_vs_seed`` of a fresh ``bench_wallclock.py --quick`` run
against the committed ``BENCH_wallclock.json`` (recorded in full mode from
the same tree state).  Each scenario must retain at least ``THRESHOLD``
of its committed speedup.

The floor is deliberately loose: the quick run uses a shorter workload
and a different (quick-mode) seed baseline than the committed full run,
and on shared CI machines back-to-back quick runs were observed to swing
a scenario's speedup by 30-40% on load noise alone.  What the smoke must
catch is a *fast path falling off* — the batch kernels silently disabled,
a cache no longer hit — which shows up as a 2-10x collapse, far below
any noise floor.  0.6x separates those two regimes cleanly; chasing
single-digit-percent regressions is the full bench's job, not CI's.

Usage::

    python scripts/check_bench_smoke.py --committed BENCH_wallclock.json \
        --smoke .bench_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Minimum fraction of the committed speedup a smoke run must retain.
THRESHOLD = 0.6

#: Per-scenario overrides.  The continuous scenario gets a tighter floor:
#: its speedup comes from the columnar window views plus the incremental
#: window-delta cache, and losing either (views never built, deltas never
#: hit) collapses the speedup several-fold — well below 0.7x of the
#: committed figure even on a noisy machine.
#: The serving scenario's speedup is the unshared-vs-shared execution
#: ratio measured in the same run; both sides see the same machine
#: noise, so the ratio is steadier than cross-run comparisons.  What the
#: floor must catch is plan sharing silently disabled — every
#: subscription running its own window closes — which collapses the
#: ratio to ~1x, far below 0.6x of any committed figure.
#: The adaptive scenario's speedup is likewise a same-run ratio
#: (cold-pinned vs adaptive).  The failure it must catch is the plan
#: monitor never swapping — statistics gone stale, hysteresis broken,
#: swaps no longer landing between closes — which pins the ratio at
#: ~1.0x.  The committed full-mode figure is ~2.6x; quick mode's
#: shorter workload leaves fewer post-swap closes to win back (~2x
#: typical, with noisy runs to ~1.6x), so its floor is 0.5x committed
#: (~1.3x) — still clearly above the regressed ~1.0x regime.
#: The temporal scenario's speedup is measured against the frozen wall
#: time of the retired row-based interval evaluator on the same
#: deep-history workload.  Quick mode's shorter run leaves shallower
#: version chains, which systematically trims the ratio ~20-30% below
#: the committed full-mode figure (a ~5x full run smokes at ~4x), so the
#: floor is 0.6x.  The failure it must catch is quintuple steps
#: falling back to per-row work (the batched store reads unused) — which
#: collapses the ratio to ~1x, far below 0.6x of the committed multi-x
#: figure.
SCENARIO_THRESHOLDS = {"continuous": 0.7, "serving": 0.6,
                       "adaptive": 0.5, "temporal": 0.6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed", default="BENCH_wallclock.json")
    parser.add_argument("--smoke", required=True,
                        help="JSON report of the fresh --quick run")
    args = parser.parse_args(argv)

    with open(args.committed) as handle:
        committed = json.load(handle).get("speedup_vs_seed", {})
    with open(args.smoke) as handle:
        smoke = json.load(handle).get("speedup_vs_seed", {})

    if not committed:
        print(f"{args.committed} records no speedup_vs_seed; nothing to "
              "gate against")
        return 1

    failures = []
    for name, want in sorted(committed.items()):
        threshold = SCENARIO_THRESHOLDS.get(name, THRESHOLD)
        floor = threshold * want
        got = smoke.get(name)
        if got is None:
            failures.append(f"{name}: smoke run reports no speedup "
                            "(baseline file missing?)")
            continue
        status = "ok" if got >= floor else "REGRESSED"
        print(f"{name:12s} committed {want:.2f}x, smoke {got:.2f}x "
              f"(floor {floor:.2f}x) .. {status}")
        if got < floor:
            failures.append(
                f"{name}: {got:.2f}x < {floor:.2f}x "
                f"({threshold} * committed {want:.2f}x)")

    if failures:
        print("\nbench smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
