"""The Dispatcher: partitioning adapted batches across nodes.

Each tuple contributes an out-edge on the owner of its subject and an
in-edge on the owner of its object, for both the persistent store (timeless
data) and the transient store (timing data) — the same sharding for both,
co-locating a stream's data (§4.1).  The Dispatcher slices one adapted
batch into per-node sub-batches and prices the one-way transfers to remote
injectors.

Batches travel as :class:`EncodedColumns`.  Routing groups the row
indices of the subject (out half) or object (in half) column by owner in
one pass and takes each group, so every node's halves keep arrival
order; on one node there is nothing to route and the halves share the
adaptor's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.adaptor import AdaptedBatch
from repro.rdf.terms import EncodedColumns
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter, MemoryModel


@dataclass
class NodeBatch:
    """The slice of one stream batch destined for one node's injector."""

    stream: str
    batch_no: int
    node_id: int
    out_timeless: EncodedColumns = field(default_factory=EncodedColumns)
    in_timeless: EncodedColumns = field(default_factory=EncodedColumns)
    out_timing: EncodedColumns = field(default_factory=EncodedColumns)
    in_timing: EncodedColumns = field(default_factory=EncodedColumns)

    @property
    def num_inserts(self) -> int:
        return (len(self.out_timeless) + len(self.in_timeless)
                + len(self.out_timing) + len(self.in_timing))


class Dispatcher:
    """Partitions adapted batches; lives on the node the stream arrives at."""

    def __init__(self, cluster: Cluster, source_node: int = 0,
                 memory: Optional[MemoryModel] = None):
        self.cluster = cluster
        self.source_node = source_node
        self.memory = memory if memory is not None else MemoryModel()
        #: node_id -> stream tuples routed to that node's injector so far.
        #: Pure wall-clock bookkeeping (never charged): the serving layer
        #: reads these to steer one-shot traffic away from injection-hot
        #: nodes, and operators read them as a per-node load view.
        self.tuples_routed: Dict[int, int] = {
            node.node_id: 0 for node in cluster.nodes}

    def dispatch(self, adapted: AdaptedBatch,
                 meter: Optional[LatencyMeter] = None) -> Dict[int, NodeBatch]:
        """Split one batch by owner node; prices remote transfers.

        Every node receives a (possibly empty) NodeBatch so injectors can
        advance their vector timestamps even for batches that carry no
        local data — visibility requires insertion *on all nodes* (§4.3).
        """
        batches: Dict[int, NodeBatch] = {
            node.node_id: NodeBatch(adapted.stream, adapted.batch_no,
                                    node.node_id)
            for node in self.cluster.nodes
        }
        if len(batches) == 1:
            # Single-node fast path: every owner is the one node, and
            # columns are never mutated, so both halves share them.
            node_batch = next(iter(batches.values()))
            node_batch.out_timeless = node_batch.in_timeless = \
                adapted.timeless
            node_batch.out_timing = node_batch.in_timing = adapted.timing
        else:
            owner_groups = self.cluster.owner_groups
            for columns, out_name, in_name in (
                    (adapted.timeless, "out_timeless", "in_timeless"),
                    (adapted.timing, "out_timing", "in_timing")):
                for vertex, name in ((columns.s, out_name),
                                     (columns.o, in_name)):
                    for owner, rows in owner_groups(vertex).items():
                        setattr(batches[owner], name,
                                columns if len(rows) == len(columns)
                                else columns.take(rows))
        for node_id, node_batch in batches.items():
            self.tuples_routed[node_id] += node_batch.num_inserts
        if meter is not None:
            # Transfers to the injectors proceed in parallel; the batch
            # waits for the largest one.
            sends = []
            for node_id, node_batch in batches.items():
                if node_id == self.source_node:
                    continue
                branch = meter.spawn()
                payload = self.memory.tuple_bytes * node_batch.num_inserts
                self.cluster.fabric.one_way(branch, payload,
                                            category="dispatch")
                sends.append(branch)
            meter.join_parallel(sends)
        return batches
