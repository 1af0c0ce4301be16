#!/usr/bin/env python
"""Regenerate (or verify) every golden file in the test suite.

Three goldens exist today:

* ``tests/core/golden_determinism.json`` — simulated latencies and cost
  breakdowns of the determinism workload (integer picoseconds);
* ``tests/chaos/golden_chaos.json`` — the chaos chronicle, gap ledger and
  row/latency/state fingerprints of the hand-written multi-fault plan;
* ``tests/store/golden_kernels.json`` — rows, meters, breakdowns
  (integer picoseconds), traversal counters and state digests of the
  kernel battery (``tests/store/kernel_cases.py``).  It was frozen at
  commit abcfe48, the last one carrying the row-at-a-time kernels, by a
  generator that ran every case on both kernel families and refused to
  write unless they agreed, and re-recorded once when the meter became
  an exact integer clock (every latency within float rounding of the
  frozen one, every other fact identical — table in CHANGES.md, PR 16),
  and once more, in the latency half of the ``temporal/*`` cases only,
  when the interval kernels were folded into the executor's and
  interval queries began to pay the ``project`` charge every other
  query kind pays (``binding`` price per distinct projected row; rows,
  row order, counters, digests and every other charge category
  identical — table in CHANGES.md, PR 18);
  rewriting it replaces that chain with the current code's own word, so
  only do it for a deliberate change to the cost model, with the reason
  in the commit.

Rows and latencies are fingerprinted separately (``rows_sha256`` /
``latency_sha256``), so a cost-model change moves only the latency half.

``--check`` recomputes all of them without writing and exits 1 on any
drift — run_checks.sh uses it to catch semantics changes that were not
accompanied by a deliberate golden regeneration.
"""

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "tests"))


def _goldens():
    from chaos.chaos_workload import (GOLDEN_CHAOS_PATH, TICKS,
                                      build_engine, golden_plan)
    from core.determinism_workload import GOLDEN_PATH, run_workload
    from repro.chaos import chaos_run_facts
    from store.kernel_cases import GOLDEN_KERNELS_PATH, compute_facts

    yield ("determinism", GOLDEN_PATH, run_workload)
    yield ("chaos", GOLDEN_CHAOS_PATH,
           lambda: chaos_run_facts(build_engine, golden_plan(), TICKS))
    yield ("kernels", GOLDEN_KERNELS_PATH, compute_facts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the goldens instead of rewriting them")
    args = parser.parse_args()

    drifted = 0
    for name, path, compute in _goldens():
        # Round-trip through JSON so recorded and recomputed facts share
        # one representation (tuples become lists, keys become strings).
        facts = json.loads(json.dumps(compute(), sort_keys=True))
        if args.check:
            if not os.path.exists(path):
                print(f"[{name}] MISSING: {path}")
                drifted += 1
                continue
            with open(path) as handle:
                recorded = json.load(handle)
            if recorded == facts:
                print(f"[{name}] ok: {path}")
            else:
                print(f"[{name}] DRIFT: recomputed facts differ from "
                      f"{path}; regenerate with scripts/regen_goldens.py "
                      f"if the change is intended")
                drifted += 1
        else:
            with open(path, "w") as handle:
                json.dump(facts, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"[{name}] wrote {path}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
