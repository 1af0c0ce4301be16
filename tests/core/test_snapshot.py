"""Tests for the SN <-> VTS plan (bounded snapshot scalarization)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.snapshot import SNMapping, SNVTSPlan
from repro.errors import ConsistencyError


def test_paper_fig11_example():
    plan = SNVTSPlan(["S0", "S1"])
    plan.publish({"S0": 3, "S1": 9})    # SN 2 in the figure (our SN 1)
    plan.publish({"S0": 5, "S1": 12})   # SN 3 in the figure (our SN 2)
    assert plan.sn_for("S0", 3) == 1
    assert plan.sn_for("S0", 4) == 2
    assert plan.sn_for("S0", 5) == 2
    assert plan.sn_for("S1", 10) == 2
    assert plan.sn_for("S0", 6) is None  # beyond the plan: injector stalls


def test_publish_returns_increasing_sns():
    plan = SNVTSPlan(["S"])
    assert plan.publish({"S": 2}) == 1
    assert plan.publish({"S": 4}) == 2
    assert plan.latest_sn == 2


def test_mapping_must_cover_all_streams():
    plan = SNVTSPlan(["S0", "S1"])
    with pytest.raises(ConsistencyError):
        plan.publish({"S0": 1})


def test_mapping_must_be_monotonic():
    plan = SNVTSPlan(["S"])
    plan.publish({"S": 5})
    with pytest.raises(ConsistencyError):
        plan.publish({"S": 4})


def test_equal_upper_allowed_for_idle_stream():
    plan = SNVTSPlan(["S0", "S1"])
    plan.publish({"S0": 2, "S1": 2})
    plan.publish({"S0": 4, "S1": 2})  # S1 idle
    assert plan.sn_for("S0", 3) == 2
    assert plan.sn_for("S1", 3) is None


def test_requirement_for():
    plan = SNVTSPlan(["S0", "S1"])
    plan.publish({"S0": 3, "S1": 9})
    assert plan.requirement_for(1) == {"S0": 3, "S1": 9}
    with pytest.raises(ConsistencyError):
        plan.requirement_for(2)


def test_bad_lookups_rejected():
    plan = SNVTSPlan(["S"])
    plan.publish({"S": 2})
    with pytest.raises(ConsistencyError):
        plan.sn_for("other", 1)
    with pytest.raises(ConsistencyError):
        plan.sn_for("S", 0)


def test_dynamic_stream_addition():
    plan = SNVTSPlan(["S0"])
    plan.publish({"S0": 2})
    plan.add_stream("S1")
    # Existing mappings implicitly cover batch 0 of the new stream.
    assert plan.requirement_for(1) == {"S0": 2, "S1": 0}
    plan.publish({"S0": 4, "S1": 2})
    assert plan.sn_for("S1", 1) == 2
    with pytest.raises(ConsistencyError):
        plan.add_stream("S1")


def test_sn_assignment_is_monotone_in_batch_no():
    plan = SNVTSPlan(["S"])
    for upper in (2, 5, 9):
        plan.publish({"S": upper})
    previous = 0
    for batch in range(1, 10):
        sn = plan.sn_for("S", batch)
        assert sn is not None and sn >= previous
        previous = sn


def _linear_sn_for(plan, stream, batch_no):
    """The reference lookup: scan the mappings from SN 1."""
    if stream not in plan.streams:
        raise ConsistencyError(f"unknown stream: {stream}")
    if batch_no < 1:
        raise ConsistencyError(f"batch numbers are 1-based: {batch_no}")
    for sn in range(1, plan.latest_sn + 1):
        if plan.mapping(sn).upper.get(stream, 0) >= batch_no:
            return sn
    return None


def _outcome(lookup, *args):
    try:
        return lookup(*args)
    except ConsistencyError:
        return ConsistencyError


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(st.lists(st.integers(0, 3), min_size=4,
                                   max_size=4),
                          st.just("add_stream")), max_size=30))
def test_sn_for_matches_linear_scan(steps):
    """Random per-stream widths (0 included), streams added mid-plan,
    batches beyond the plan and both refusals: the bisecting lookup
    answers exactly what a scan from SN 1 answers."""
    plan = SNVTSPlan(["S0"])
    upper = {"S0": 0}
    for step in steps:
        if step == "add_stream":
            if len(upper) < 4:
                stream = f"S{len(upper)}"
                plan.add_stream(stream)
                upper[stream] = 0
            continue
        for stream, width in zip(list(upper), step):
            upper[stream] += width
        plan.publish(dict(upper))
    for stream in list(upper) + ["unknown"]:
        for batch_no in range(0, upper.get(stream, 0) + 3):
            assert _outcome(plan.sn_for, stream, batch_no) == \
                _outcome(_linear_sn_for, plan, stream, batch_no)


def test_sn_for_probes_logarithmically():
    """On a plan of 2^16 mappings every lookup reads at most 17 of them."""
    probes = [0]

    class CountingDict(dict):
        def get(self, key, default=None):
            probes[0] += 1
            return dict.get(self, key, default)

    plan = SNVTSPlan(["S"])
    size = 1 << 16
    for sn in range(1, size + 1):
        plan.publish({"S": 2 * sn})
    plan._mappings[:] = [SNMapping(m.sn, CountingDict(m.upper))
                         for m in plan._mappings]
    for batch_no in (1, 2, 3, 4097, size, 2 * size - 1, 2 * size,
                     2 * size + 1, 10 * size):
        probes[0] = 0
        expected = (batch_no + 1) // 2 if batch_no <= 2 * size else None
        assert plan.sn_for("S", batch_no) == expected
        assert probes[0] <= 17
