"""Bit-identical simulated time: the wall-clock fast path's guard rail.

Replays the fixed workload of :mod:`core.determinism_workload` and asserts
that every simulated latency and per-category breakdown equals the golden
recording (integer picoseconds, no tolerance).  Wall-clock optimizations
— compiled binding rows, skip-indexed stream lookups, aggregated charges,
cached window accesses — must all pass through this unchanged; see
DESIGN.md, "Wall-clock vs simulated time".
"""

import json

import pytest

from core.determinism_workload import GOLDEN_PATH, run_workload


@pytest.fixture(scope="module")
def facts():
    # One run covers both fabric variants; JSON round-trip normalizes
    # container types so the comparison matches the golden file exactly.
    return json.loads(json.dumps(run_workload(), sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("variant", ["rdma", "tcp"])
class TestSimulatedTimeIsBitIdentical:
    def test_continuous_latencies(self, facts, golden, variant):
        got = facts[variant]["continuous"]
        want = golden[variant]["continuous"]
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], (
                f"{variant}/{name}: simulated continuous-query time "
                f"diverged from the golden recording")

    def test_oneshot_latencies(self, facts, golden, variant):
        assert facts[variant]["oneshot"] == golden[variant]["oneshot"]

    def test_time_scoped_latencies(self, facts, golden, variant):
        assert facts[variant]["time_scoped"] == \
            golden[variant]["time_scoped"]

    def test_injection_accounting(self, facts, golden, variant):
        assert facts[variant]["injection"] == golden[variant]["injection"]


def test_workload_is_substantial(golden):
    """The guard is only meaningful if the workload exercises the engine."""
    executions = sum(len(execs)
                     for variant in golden.values()
                     for execs in variant["continuous"].values())
    assert executions >= 100
    for variant in golden.values():
        categories = set()
        for execs in variant["continuous"].values():
            for _, _, _, breakdown in execs:
                categories |= set(breakdown)
        assert {"dispatch", "explore", "project", "store"} <= categories
