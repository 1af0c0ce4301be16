"""Self-test of the benchmark harness (``pytest benchmarks/e2e``; about
two minutes, not part of tier-1)."""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    """One ``--quick --trace`` set of all five workloads."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "set", "--quick",
         "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle)


def test_quick_set_is_flagged_and_deterministic(quick_set):
    assert quick_set["mode"] == "quick"
    assert quick_set["runs"] == 2
    assert quick_set["deterministic"] is True


def test_emits_exactly_the_declared_names(quick_set, declared):
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert all(NAME.fullmatch(name) for name in end_to_end | per_layer)
    assert {w["name"] for w in declared["workloads"]} == \
        set(quick_set["workloads"])
    for entry in quick_set["workloads"].values():
        assert set(entry["metrics"]) == end_to_end
        assert set(entry["layers"]) == per_layer
        assert entry["probes_missing"] == []
        assert entry["undeclared"] == []
        assert all(v["median"] > 0 for v in entry["metrics"].values())


def test_no_operation_fails(quick_set):
    for name, entry in quick_set["workloads"].items():
        assert entry["failed_ops_share"] == 0, name
        assert entry["attempted"] > 0


def test_trace_attributes_the_wall(quick_set):
    for name, entry in quick_set["workloads"].items():
        assert entry["layers"]["trace.coverage"] >= 0.9, name
        assert entry["layers"]["trace.overhead_ratio"] > 0


def test_workloads_bypass_the_layers_they_were_chosen_to_bypass(quick_set):
    ingest = quick_set["workloads"]["ingest"]["layers"]
    adhoc = quick_set["workloads"]["adhoc"]["layers"]
    assert ingest["executor.executions"] == 0
    assert ingest["injector.inserts"] > 0
    assert adhoc["injector.inserts"] == 0
    assert adhoc["executor.executions"] > 0


def test_a_corrupted_row_is_a_failed_operation():
    from workloads import Adhoc
    workload = Adhoc(seed=5, quick=True)
    workload.generate()
    workload.setup()
    i = workload.first_step
    step = workload.step(i)
    workload.check(i, step)
    assert workload.tally.failed == 0
    while True:
        i += 1
        step = workload.step(i)
        rows = step.outputs[0][2].rows
        if rows:
            break
    rows[0] = tuple("corrupted" for _ in rows[0])
    workload.check(i, step)
    assert workload.tally.failed == 1
    assert workload.tally.failed / workload.tally.attempted > 0


def test_compare_refuses_quick_sets(quick_set, tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(quick_set))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "compare",
         str(path), str(path)], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode != 0
    assert "not comparable" in done.stderr
