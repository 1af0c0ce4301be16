"""The Coordinator: stable vector timestamps, SN plans and query triggering.

Responsibilities (§4.3, Fig. 10-11):

* track each node's ``Local_VTS`` and derive the cluster ``Stable_VTS``
  (element-wise minimum) — a continuous query execution fires only when the
  stable vector covers every batch its windows need (data-driven model);
* publish the SN->VTS plan ahead of injection and advance each node's
  ``Local_SN``/the cluster ``Stable_SN`` as insertion progresses, so
  one-shot queries read a consistent scalar snapshot;
* drive bounded scalarization: once a snapshot can no longer be read
  (older than the stable one), its segments are compacted into the base,
  keeping the per-key live-segment count bounded (typically two: one being
  read, one being inserted).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.snapshot import SNVTSPlan
from repro.core.vts import VectorTimestamp
from repro.errors import (ConsistencyError, SnapshotBelowGCFrontierError,
                          SnapshotNotYetStableError)
from repro.sim.cost import CostModel, LatencyMeter
from repro.store.distributed import DistributedStore


class Coordinator:
    """Cluster-wide consistency state.

    Parameters
    ----------
    num_nodes:
        Cluster size (one Local_VTS / Local_SN per node).
    streams:
        Initially registered stream names (more can be added dynamically).
    plan_width:
        Batches per stream admitted by each SN mapping — the paper's
        staleness/flexibility trade-off knob.  Width 1 keeps one-shot
        results freshest; larger widths let unbalanced injectors run ahead.
    scalarization:
        Disable to reproduce the paper's "without bounded snapshot
        scalarization" memory comparison (§6.7): plans still exist but
        compaction never runs.
    """

    def __init__(self, num_nodes: int, streams: List[str],
                 plan_width: int, scalarization: bool = True,
                 cost: Optional[CostModel] = None):
        if plan_width < 1:
            raise ConsistencyError(f"plan width must be >= 1: {plan_width}")
        self.cost = cost if cost is not None else CostModel()
        self.plan_width = plan_width
        self.scalarization = scalarization
        self.plan = SNVTSPlan(list(streams))
        self.local_vts: List[VectorTimestamp] = [
            VectorTimestamp(streams) for _ in range(num_nodes)
        ]
        self.local_sn: List[int] = [0] * num_nodes
        self._stable_sn = 0
        self._compacted_through = 0
        self._down: set = set()
        #: Snapshot pins held by in-flight temporal reads: SN -> refcount.
        #: Compaction never advances past the lowest pinned snapshot, so a
        #: pinned read stays exact while ingestion (and GC) continue.
        self._pins: Dict[int, int] = {}
        # The plan is announced ahead of injection (Fig. 11): publish the
        # first mapping immediately.
        self._publish_next()

    # -- stream lifecycle ------------------------------------------------
    def add_stream(self, stream: str) -> None:
        """Dynamically register a stream; transparent to one-shot queries."""
        for vts in self.local_vts:
            vts.add_stream(stream)
        self.plan.add_stream(stream)

    @property
    def streams(self) -> List[str]:
        return self.plan.streams

    # -- failure awareness -------------------------------------------------
    def mark_node_down(self, node_id: int) -> None:
        """A node failed: freeze SN publication until it recovers.

        While any node is down the cluster must not open new snapshots —
        the recovered node replays its durable log against the *same* SN
        plan the batches were originally admitted under, which keeps every
        value-list offset and shared stream-index span bit-identical to a
        never-faulted run (the recovery-equivalence invariant).
        """
        self._down.add(node_id)

    def mark_node_up(self, node_id: int) -> None:
        """A node finished recovery; normal SN publication may resume."""
        self._down.discard(node_id)

    # -- VTS updates -------------------------------------------------------
    def on_batch_inserted(self, node_id: int, stream: str, batch_no: int,
                          meter: Optional[LatencyMeter] = None) -> None:
        """A node's injector finished batch ``batch_no`` of ``stream``."""
        if node_id in self._down:
            raise ConsistencyError(
                f"node {node_id} is down; its injector cannot make progress")
        self.local_vts[node_id].update(stream, batch_no)
        if meter is not None:
            meter.charge(self.cost.vts_update_ns, category="vts")

    def stable_vts(self) -> VectorTimestamp:
        """The cluster-wide stable vector (element-wise minimum)."""
        return VectorTimestamp.stable(self.local_vts)

    def is_ready(self, requirement: Mapping[str, int]) -> bool:
        """Whether the stable vector covers a query's window requirement."""
        return self.stable_vts().covers(requirement)

    # -- SN machinery ----------------------------------------------------------
    def sn_for_batch(self, stream: str, batch_no: int) -> Optional[int]:
        """The snapshot number for an arriving batch; None = injector stalls."""
        return self.plan.sn_for(stream, batch_no)

    def advance(self, store: Optional[DistributedStore] = None,
                meter: Optional[LatencyMeter] = None) -> int:
        """Re-derive Local_SN/Stable_SN, publish new mappings when every
        node has reached the frontier, and compact retired snapshots.

        Returns the (possibly advanced) stable SN.
        """
        if self._down:
            return self._stable_sn
        for node_id, vts in enumerate(self.local_vts):
            sn = self.local_sn[node_id]
            while sn < self.plan.latest_sn and \
                    vts.covers(self.plan.requirement_for(sn + 1)):
                sn += 1
            self.local_sn[node_id] = sn
        stable = min(self.local_sn) if self.local_sn else 0
        if stable > self._stable_sn:
            self._stable_sn = stable
        # Publish a single new mapping once the current frontier is reached
        # on all nodes, keeping exactly one mapping open for insertion.
        while min(self.local_sn) == self.plan.latest_sn:
            self._publish_next(meter)
        if self.scalarization and store is not None:
            # Two live snapshots per key: the stable one being read and
            # the next one being inserted.
            bound = self._stable_sn - 1
            if self._pins:
                # A pinned snapshot t stays exact as long as the frontier
                # does not pass it: the entries a frontier at <= t reads
                # as BASE were already visible at t.
                bound = min(bound, min(self._pins))
            if bound > self._compacted_through:
                store.compact(bound)
                self._compacted_through = bound
        return self._stable_sn

    def _publish_next(self, meter: Optional[LatencyMeter] = None) -> None:
        previous: Dict[str, int]
        if self.plan.latest_sn:
            previous = self.plan.mapping(self.plan.latest_sn).upper
        else:
            previous = {s: 0 for s in self.plan.streams}
        upper = {s: previous[s] + self.plan_width for s in self.plan.streams}
        self.plan.publish(upper)
        if meter is not None:
            meter.charge(self.cost.sn_publish_ns, category="vts")

    @property
    def stable_sn(self) -> int:
        """The snapshot one-shot queries read at."""
        return self._stable_sn

    @property
    def compacted_through(self) -> int:
        return self._compacted_through

    # -- snapshot pinning (SPARQL-T reads vs the GC frontier) --------------
    def pin_snapshot(self, snapshot: int) -> int:
        """Pin ``snapshot`` against compaction for an in-flight read.

        Validates readability *and* holds the GC frontier at or below the
        pinned SN until :meth:`unpin_snapshot`, so a temporal read stays
        exact even if :meth:`advance` runs mid-query.  Raises a typed
        :class:`~repro.errors.TemporalError` — never returns silently
        wrong data — when the snapshot is outside the readable range
        ``[compacted_through, stable_sn]``.
        """
        if snapshot < self._compacted_through:
            raise SnapshotBelowGCFrontierError(
                f"snapshot {snapshot} predates the GC frontier "
                f"{self._compacted_through}: its version segments were "
                f"scalarized into the base snapshot",
                snapshot=snapshot, frontier=self._compacted_through,
                stable=self._stable_sn)
        if snapshot > self._stable_sn:
            raise SnapshotNotYetStableError(
                f"snapshot {snapshot} is above the stable SN "
                f"{self._stable_sn}: not every node has inserted the "
                f"batches it covers",
                snapshot=snapshot, frontier=self._compacted_through,
                stable=self._stable_sn)
        self._pins[snapshot] = self._pins.get(snapshot, 0) + 1
        return snapshot

    def unpin_snapshot(self, snapshot: int) -> None:
        """Release one pin on ``snapshot`` (idempotent per pin)."""
        count = self._pins.get(snapshot, 0)
        if count <= 1:
            self._pins.pop(snapshot, None)
        else:
            self._pins[snapshot] = count - 1

    @property
    def pinned_snapshots(self) -> Dict[int, int]:
        """A copy of the live pin table (SN -> refcount)."""
        return dict(self._pins)
