"""Tests for the cost model and latency meter."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.sim.cost import (PS_PER_NS, CostModel, LatencyMeter,
                            MemoryModel)
from repro.sim.network import Fabric


class TestCostModel:
    def test_rdma_read_cost_includes_bytes(self):
        cost = CostModel(rdma_read_ns=1000, rdma_byte_ps=500)
        assert cost.rdma_read_cost(100) == 1_000_000 + 50_000

    def test_tcp_cost_includes_bytes(self):
        cost = CostModel(tcp_rtt_ns=50_000, tcp_byte_ps=1_000)
        assert cost.tcp_cost(200) == 50_200_000

    def test_negative_bytes_clamped(self):
        cost = CostModel()
        assert cost.rdma_read_cost(-10) == cost.rdma_read_ns * PS_PER_NS
        assert cost.tcp_cost(-10) == cost.tcp_rtt_ns * PS_PER_NS

    def test_rdma_is_cheaper_than_tcp_by_default(self):
        cost = CostModel()
        assert cost.rdma_read_cost(1024) < cost.tcp_cost(1024)

    def test_every_price_is_an_integer(self):
        cost = CostModel()
        for field in dataclasses.fields(cost):
            assert type(getattr(cost, field.name)) is int, field.name
        for nbytes in (0, 1, 63, 1024):
            for price in (cost.rdma_read_cost, cost.tcp_cost,
                          cost.tcp_one_way_cost):
                assert type(price(nbytes)) is int
        # The default one-way send is exactly half a round trip, odd
        # byte counts included.
        assert cost.tcp_one_way_cost(63) * 2 == cost.tcp_cost(63)


class TestLatencyMeter:
    def test_starts_empty(self):
        meter = LatencyMeter()
        assert meter.ns == 0.0
        assert meter.ms == 0.0

    def test_charge_accumulates(self):
        meter = LatencyMeter()
        meter.charge(500)
        meter.charge(250, times=2)
        assert meter.ns == 1000.0
        assert meter.us == 1.0

    def test_charge_rejects_negative(self):
        meter = LatencyMeter()
        with pytest.raises(ValueError):
            meter.charge(-1)
        with pytest.raises(ValueError):
            meter.charge(1, times=-1)

    def test_category_breakdown(self):
        meter = LatencyMeter()
        meter.charge(1_000_000, category="store")
        meter.charge(2_000_000, category="network")
        meter.charge(500_000, category="store")
        breakdown = meter.breakdown_ms
        assert breakdown["store"] == pytest.approx(1.5)
        assert breakdown["network"] == pytest.approx(2.0)

    def test_add_is_sequential(self):
        a, b = LatencyMeter(), LatencyMeter()
        a.charge(100, category="x")
        b.charge(200, category="x")
        a.add(b)
        assert a.ns == 300.0
        assert a.breakdown_ms["x"] == pytest.approx(300 / 1e6)

    def test_join_parallel_takes_max(self):
        meter = LatencyMeter()
        meter.charge(500)
        fast, slow = meter.spawn(), meter.spawn()
        fast.charge(1_000)
        slow.charge(3_000)
        meter.join_parallel([fast, slow])
        assert meter.ns == 3_500.0

    def test_join_parallel_merges_slowest_breakdown(self):
        meter = LatencyMeter()
        fast, slow = meter.spawn(), meter.spawn()
        fast.charge(1, category="fast-work")
        slow.charge(100, category="slow-work")
        meter.join_parallel([fast, slow])
        assert "slow-work" in meter.breakdown_ms
        assert "fast-work" not in meter.breakdown_ms

    def test_join_parallel_empty_is_noop(self):
        meter = LatencyMeter()
        meter.charge(10)
        meter.join_parallel([])
        assert meter.ns == 10.0

    def test_readings_derive_from_integer_picoseconds(self):
        meter = LatencyMeter()
        meter.charge(3, category="store")
        meter.charge_ps(20, category="network")
        assert meter.ps == 3_020 and type(meter.ps) is int
        assert meter.breakdown_ps == {"store": 3_000, "network": 20}
        assert (meter.ns, meter.us, meter.ms) == (3.02, 0.00302, 3.02e-06)
        assert meter.breakdown_ms == {"store": 3e-06, "network": 2e-08}

    def test_float_charge_fails_loudly_at_read_time(self):
        """Charging neither converts nor type-checks (it is the hot
        path); a fractional amount poisons the accumulator and every
        reading of it raises."""
        meter = LatencyMeter()
        meter.charge(150)
        meter.charge(0.5, category="store")  # accepted silently...
        meter.charge(150)
        for read in ("ps", "ns", "us", "ms", "breakdown_ps",
                     "breakdown_ms"):
            with pytest.raises(TypeError, match="non-integer"):
                getattr(meter, read)
        parent = LatencyMeter()
        parent.add(meter)  # ...and it stays loud through a fold
        with pytest.raises(TypeError):
            parent.ps

    def test_surcharge_is_the_one_rounding_rule(self):
        meter = LatencyMeter()
        meter.charge_ps(10)
        meter.surcharge(0.25, "contention")  # 2.5 ps: half to even
        assert meter.breakdown_ps == {"contention": 2}
        meter.surcharge(0.125, "contention")  # 12 ps * 0.125 = 1.5
        assert meter.ps == 14
        base = meter.ps
        meter.charge(1)
        meter.surcharge(1.0, "straggle", since_ps=base)
        assert meter.breakdown_ps["straggle"] == 1_000
        quiet = LatencyMeter()
        quiet.surcharge(2.0, "straggle")  # nothing elapsed: no category
        assert quiet.ps == 0 and quiet.breakdown_ps == {}


# -- charges commute and aggregate exactly ------------------------------

_COST = CostModel()
_FABRICS = {True: Fabric(_COST, use_rdma=True),
            False: Fabric(_COST, use_rdma=False)}
_CATEGORIES = st.sampled_from([None, "store", "network", "explore"])
_CHARGE = st.one_of(
    st.tuples(st.just("ns"),
              st.sampled_from([_COST.scan_entry_ns, _COST.hash_probe_ns,
                               _COST.binding_ns, _COST.task_dispatch_ns]),
              st.integers(1, 40), _CATEGORIES),
    st.tuples(st.sampled_from(["remote_read", "message", "one_way",
                               "bulk_transfer"]),
              st.booleans(), st.integers(0, 4_097), _CATEGORIES))


def _apply(meter, charge, split=False):
    kind, a, b, category = charge
    if kind == "ns":
        if split:  # ``times=n`` as n separate calls
            for _ in range(b):
                meter.charge(a, category=category)
        else:
            meter.charge(a, times=b, category=category)
    else:
        getattr(_FABRICS[a], kind)(meter, b, category=category or "network")


@given(st.lists(_CHARGE, max_size=30), st.randoms(use_true_random=False),
       st.integers(1, 5))
def test_any_order_and_grouping_reads_the_same(charges, rng, groups):
    """The invariant that replaced the charge-ordering discipline: a
    multiset of charges — whole-ns prices and per-byte transfers on both
    fabrics, odd byte counts included — reads the same total and the
    same breakdown however it is ordered, split (``times=n`` vs n
    calls), grouped through spawned children folded with ``add``, or
    passed through ``join_parallel``."""
    reference = LatencyMeter()
    for charge in charges:
        _apply(reference, charge)
    want = (reference.ps, reference.breakdown_ps)

    shuffled = list(charges)
    rng.shuffle(shuffled)
    permuted, split = LatencyMeter(), LatencyMeter()
    for charge in shuffled:
        _apply(permuted, charge)
        _apply(split, charge, split=True)
    assert (permuted.ps, permuted.breakdown_ps) == want
    assert (split.ps, split.breakdown_ps) == want

    grouped = LatencyMeter()
    children = [grouped.spawn() for _ in range(groups)]
    for charge in shuffled:
        _apply(rng.choice(children), charge)
    for child in children:
        grouped.add(child)
    assert (grouped.ps, grouped.breakdown_ps) == want

    joined = LatencyMeter()
    only = joined.spawn()
    for charge in shuffled:
        _apply(only, charge)
    joined.join_parallel([only])
    assert (joined.ps, joined.breakdown_ps) == want


class TestMemoryModel:
    def test_defaults_are_positive(self):
        model = MemoryModel()
        assert model.entry_bytes > 0
        assert model.fat_pointer_bytes > 0
        assert model.tuple_bytes > model.entry_bytes
