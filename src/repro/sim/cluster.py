"""Simulated cluster: nodes, data partitioning and worker accounting.

A :class:`Cluster` stands in for the paper's 8-node rack.  Each
:class:`Node` models one server with a fixed number of query-worker threads
(one continuous-query engine and one one-shot engine in Wukong+S).  Data
placement uses the same hash partitioning as Wukong: a vertex ``vid`` lives
on node ``vid % num_nodes``.

Fault injection (``kill_node`` / ``restart_node``) drives the recovery path
of the fault-tolerance experiments (§6.8).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ReproError
from repro.sim.cost import CostModel
from repro.sim.network import Fabric

#: Worker threads per node serving queries (the paper's servers run 16).
WORKERS_PER_NODE = 16


class Node:
    """One simulated server.

    Attributes
    ----------
    node_id:
        Zero-based identifier within the cluster.
    alive:
        False after :meth:`Cluster.kill_node` until restart.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"Node(id={self.node_id}, {status})"


class Cluster:
    """A set of simulated nodes joined by one fabric.

    Parameters
    ----------
    num_nodes:
        Cluster size (the paper evaluates 1 through 8).
    cost:
        Shared cost model; defaults to the calibrated :class:`CostModel`.
    use_rdma:
        Whether the fabric performs one-sided RDMA reads (Table 5 toggles
        this off).
    """

    def __init__(self, num_nodes: int = 8, cost: CostModel | None = None,
                 use_rdma: bool = True):
        if num_nodes <= 0:
            raise ValueError(f"cluster needs at least one node, got {num_nodes}")
        self.cost = cost if cost is not None else CostModel()
        self.fabric = Fabric(self.cost, use_rdma=use_rdma)
        self.nodes: List[Node] = [Node(i) for i in range(num_nodes)]

    # -- placement ----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def owner_of(self, vid: int) -> int:
        """The node that owns vertex ``vid`` (hash partitioning, as Wukong)."""
        return vid % len(self.nodes)

    def owner_groups(self, vids: List[int]) -> Dict[int, List[int]]:
        """The row indices of a vid column grouped by owner node: each
        group in row order, groups keyed in first-occurrence order.

        :meth:`owner_of` is inlined; a per-row dict loop measured faster
        on CPython 3.11 than the comprehension variants.
        """
        num_nodes = len(self.nodes)
        groups: Dict[int, List[int]] = {}
        for i, vid in enumerate(vids):
            owner = vid % num_nodes
            group = groups.get(owner)
            if group is None:
                groups[owner] = [i]
            else:
                group.append(i)
        return groups

    def is_local(self, vid: int, node_id: int) -> bool:
        """Whether vertex ``vid`` is stored on ``node_id``."""
        return self.owner_of(vid) == node_id

    def alive_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.alive]

    @property
    def all_alive(self) -> bool:
        """Whether the cluster is fully healthy (no failed node)."""
        return all(node.alive for node in self.nodes)

    @property
    def total_workers(self) -> int:
        """Workers across live nodes (used for throughput accounting)."""
        return WORKERS_PER_NODE * len(self.alive_nodes())

    # -- fault injection ------------------------------------------------
    def kill_node(self, node_id: int) -> None:
        """Mark a node failed (its in-memory state is considered lost)."""
        self._node(node_id).alive = False

    def restart_node(self, node_id: int) -> None:
        """Bring a failed node back (empty; recovery must reload state)."""
        self._node(node_id).alive = True

    def _node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise ReproError(f"no such node: {node_id}")
        return self.nodes[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(nodes={len(self.nodes)}, rdma={self.fabric.use_rdma})"
