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


def test_time_scoped_query_is_traced_and_neutral():
    """A time-scoped one-shot opens an ``oneshot`` activity (labelled with
    its scope) and feeds ``oneshot_ns`` like any other one-shot read,
    without moving its meter by a picosecond."""
    from core.test_engine import build_engine
    from core.test_time_scoped import JOINED_QUERY

    plain = build_engine(gc_every_ticks=0)
    traced = build_engine(gc_every_ticks=0, tracing=True)
    for engine in (plain, traced):
        engine.run_until(10_000)
    before = len(traced.tracer.activities("oneshot"))
    observed = traced.metrics.histogram("oneshot_ns").count
    want = plain.oneshot_time_scoped(JOINED_QUERY, 2_000, 9_000, home_node=0)
    got = traced.oneshot_time_scoped(JOINED_QUERY, 2_000, 9_000, home_node=0)
    assert got.result.rows == want.result.rows
    assert got.meter.ps == want.meter.ps
    assert got.meter.breakdown_ps == want.meter.breakdown_ps
    root = traced.tracer.activities("oneshot")[before]
    assert root.labels["scope"] == [2_000, 9_000]
    assert root.labels["rows"] == len(got.result.rows)
    assert (root.t0, root.t1) == (0, got.meter.ps)
    assert traced.metrics.histogram("oneshot_ns").count == observed + 1
