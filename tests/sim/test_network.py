"""Tests for the simulated fabric."""

from repro.sim.cost import CostModel, LatencyMeter
from repro.sim.network import Fabric


def test_rdma_read_charges_rdma_cost():
    cost = CostModel()
    fabric = Fabric(cost, use_rdma=True)
    meter = LatencyMeter()
    fabric.remote_read(meter, 128)
    assert meter.ps == cost.rdma_read_cost(128)
    assert fabric.stats.rdma_reads == 1
    assert fabric.stats.rdma_bytes == 128


def test_non_rdma_read_falls_back_to_tcp():
    cost = CostModel()
    fabric = Fabric(cost, use_rdma=False)
    meter = LatencyMeter()
    fabric.remote_read(meter, 128)
    assert meter.ps == cost.tcp_cost(128)
    assert fabric.stats.rdma_reads == 0
    assert fabric.stats.messages == 1


def test_message_always_uses_tcp():
    cost = CostModel()
    fabric = Fabric(cost, use_rdma=True)
    meter = LatencyMeter()
    fabric.message(meter, 64)
    assert meter.ps == cost.tcp_cost(64)


def test_one_way_is_half_round_trip():
    cost = CostModel()
    fabric = Fabric(cost, use_rdma=True)
    meter = LatencyMeter()
    fabric.one_way(meter, 64)
    assert meter.ps * 2 == cost.tcp_cost(64)


def test_stats_reset():
    fabric = Fabric(CostModel())
    fabric.remote_read(LatencyMeter(), 10)
    fabric.stats.reset()
    assert fabric.stats.rdma_reads == 0
    assert fabric.stats.rdma_bytes == 0


def test_rdma_slower_when_disabled():
    cost = CostModel()
    rdma, tcp = Fabric(cost, True), Fabric(cost, False)
    fast, slow = LatencyMeter(), LatencyMeter()
    rdma.remote_read(fast, 1024)
    tcp.remote_read(slow, 1024)
    assert slow.ns > fast.ns


def test_remote_reads_equal_that_many_single_reads():
    """``remote_reads(m, n, sum(b))`` prices, tags and counts exactly
    like ``n`` separate ``remote_read`` calls, on both media."""
    cost = CostModel()
    sizes = [32, 16, 24, 1040, 0]
    for use_rdma in (True, False):
        single, grouped = Fabric(cost, use_rdma), Fabric(cost, use_rdma)
        one_by_one, at_once = LatencyMeter(), LatencyMeter()
        for nbytes in sizes:
            single.remote_read(one_by_one, nbytes, category="network")
        grouped.remote_reads(at_once, len(sizes), sum(sizes),
                             category="network")
        assert at_once.ps == one_by_one.ps
        assert at_once.breakdown_ps == one_by_one.breakdown_ps
        assert grouped.stats == single.stats


def test_zero_remote_reads_charge_nothing():
    fabric = Fabric(CostModel())
    meter = LatencyMeter()
    fabric.remote_reads(meter, 0, 0, category="network")
    assert meter.ps == 0
    assert meter.breakdown_ps == {}
    assert fabric.stats.rdma_reads == 0


def test_message_ps_prices_and_counts_like_message():
    cost = CostModel()
    charged, priced = Fabric(cost), Fabric(cost)
    meter = LatencyMeter()
    charged.message(meter, 200)
    assert priced.message_ps(200) == meter.ps
    assert priced.stats == charged.stats
