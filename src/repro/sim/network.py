"""Simulated network fabric (RDMA-capable with a TCP fallback).

The paper's cluster has two networks: 56 Gbps InfiniBand (RDMA) and 10 GbE
(TCP).  Wukong+S uses one-sided RDMA reads for in-place execution; with
``use_rdma=False`` (Table 5) it falls back to fork-join execution over TCP.
The fabric charges the appropriate cost to a :class:`LatencyMeter` and
counts the operations so benchmarks can report traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.cost import PS_PER_NS, CostModel, LatencyMeter


@dataclass
class FabricStats:
    """Operation counters for one fabric."""

    rdma_reads: int = 0
    rdma_bytes: int = 0
    messages: int = 0
    message_bytes: int = 0
    replays: int = 0
    replay_bytes: int = 0

    def reset(self) -> None:
        self.rdma_reads = 0
        self.rdma_bytes = 0
        self.messages = 0
        self.message_bytes = 0
        self.replays = 0
        self.replay_bytes = 0


class Fabric:
    """Prices remote operations between simulated nodes.

    Parameters
    ----------
    cost:
        The shared cost model.
    use_rdma:
        When True (default), :meth:`remote_read` is a one-sided RDMA read.
        When False, remote reads are full TCP round trips, as in the paper's
        non-RDMA configuration (Table 5).
    """

    def __init__(self, cost: CostModel, use_rdma: bool = True):
        self.cost = cost
        self.use_rdma = use_rdma
        self.stats = FabricStats()

    def remote_read(self, meter: LatencyMeter, nbytes: int,
                    category: str = "network") -> None:
        """Charge one remote read of ``nbytes`` from another node's memory."""
        self.remote_reads(meter, 1, nbytes, category)

    def remote_reads(self, meter: LatencyMeter, count: int, nbytes: int,
                     category: str = "network") -> None:
        """Charge ``count`` remote reads carrying ``nbytes`` between them,
        as one charge: a read's price is a base plus a per-byte increment,
        both integers, so ``count`` reads cost exactly ``count`` bases
        plus the increment on their summed bytes.  ``count == 0`` charges
        and counts nothing."""
        if not count:
            return
        cost = self.cost
        stats = self.stats
        if self.use_rdma:
            stats.rdma_reads += count
            stats.rdma_bytes += nbytes
            meter.charge_ps(count * cost.rdma_read_ns * PS_PER_NS
                            + cost.rdma_byte_ps * nbytes, category)
        else:
            stats.messages += count
            stats.message_bytes += nbytes
            meter.charge_ps(count * cost.tcp_rtt_ns * PS_PER_NS
                            + cost.tcp_byte_ps * nbytes, category)

    def message(self, meter: LatencyMeter, nbytes: int,
                category: str = "network") -> None:
        """Charge one request/response message exchange of ``nbytes``.

        Two-sided messaging is used for fork-join dispatch and by all
        baseline systems; it always pays the TCP-style round trip (the
        paper's baselines do not use one-sided RDMA).
        """
        meter.charge_ps(self.message_ps(nbytes), category)

    def message_ps(self, nbytes: int) -> int:
        """Count one :meth:`message` exchange of ``nbytes`` and return its
        picoseconds instead of charging a meter, for a caller that adds
        the hop to a reading it already holds."""
        self.stats.messages += 1
        self.stats.message_bytes += nbytes
        return self.cost.tcp_cost(nbytes)

    def one_way(self, meter: LatencyMeter, nbytes: int,
                category: str = "network") -> None:
        """Charge a one-way send (half a round trip) of ``nbytes``."""
        self.stats.messages += 1
        self.stats.message_bytes += nbytes
        meter.charge_ps(self.cost.tcp_one_way_cost(nbytes), category)

    def replay_transfer(self, meter: LatencyMeter, nbytes: int,
                        category: str = "replay") -> None:
        """Charge one upstream-backup replay of ``nbytes`` (§5 recovery).

        Sources sit outside the rack, so replay always travels as a one-way
        TCP send regardless of the fabric's RDMA capability.  Charged to
        the recovery meter, never to an injection record, so the simulated
        cost of the healthy path is unaffected by how a run was healed.
        """
        self.stats.replays += 1
        self.stats.replay_bytes += nbytes
        meter.charge_ps(self.cost.tcp_one_way_cost(nbytes), category)

    def bulk_transfer(self, meter: LatencyMeter, nbytes: int,
                      category: str = "network") -> None:
        """Charge one bulk data movement between nodes.

        With RDMA the payload moves as a one-sided write at RDMA cost;
        without it, as a one-way TCP send.  Used by the distributed
        execution modes for row migration and result gathering — the
        medium is exactly what Table 5 toggles.
        """
        if self.use_rdma:
            self.stats.rdma_reads += 1
            self.stats.rdma_bytes += nbytes
            meter.charge_ps(self.cost.rdma_read_cost(nbytes), category)
        else:
            self.stats.messages += 1
            self.stats.message_bytes += nbytes
            meter.charge_ps(self.cost.tcp_one_way_cost(nbytes), category)
