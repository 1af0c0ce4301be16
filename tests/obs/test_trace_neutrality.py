"""Tracing must be invisible in simulated time.

Replays the golden determinism workload with the tracer attached and
asserts the recorded simulated facts — every latency and per-category
breakdown — still equal the golden file's integer picoseconds.  Any
instrumentation that charges a meter (instead of only reading it) fails
here immediately.
"""

import json

import pytest

from core.determinism_workload import GOLDEN_PATH, run_workload


@pytest.fixture(scope="module")
def traced_facts():
    return json.loads(json.dumps(run_workload(tracing=True),
                                 sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("variant", ["rdma", "tcp"])
@pytest.mark.parametrize("section", ["continuous", "oneshot",
                                     "time_scoped", "injection"])
def test_traced_run_matches_golden(traced_facts, golden, variant, section):
    assert traced_facts[variant][section] == golden[variant][section], (
        f"{variant}/{section}: enabling tracing changed simulated time")
