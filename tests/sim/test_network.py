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
