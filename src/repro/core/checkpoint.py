"""Fault tolerance: local logging, incremental checkpoints and recovery (§5).

Wukong+S assumes *upstream backup* (sources buffer and replay recent
batches) and provides at-least-once semantics for continuous queries.  Each
node synchronously logs the node-local halves of every injected batch —
the paper measures roughly 0.3 ms logging delay per batch — and a periodic
checkpoint marker records the stable vector timestamp, after which sources
are acknowledged and may trim their backup buffers.

Recovery of a crashed node (:func:`recover_node`) follows the paper's
recipe: reload the initial RDF data (the node's halves), re-apply the
durable log in original order — which reproduces the exact value-list
offsets, keeping every shared stream-index span valid — and restore the
vector-timestamp state.  :func:`replay_log` is the one replay of the log:
cold start (``repro.core.durability``) is the same replay over every
node's records.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.dispatcher import NodeBatch
from repro.core.stream_index import IndexSlice
from repro.errors import FaultToleranceError, StreamError
from repro.sim.cost import CostModel, LatencyMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import Coordinator
    from repro.core.engine import WukongSEngine
    from repro.streams.source import StreamSource


def batch_checksum(node_batch: NodeBatch) -> int:
    """CRC32 over a node batch's content (its durable-log checksum).

    Computed over the encoded integer triples and timestamps (never
    ``hash()``, whose string mixing is randomized per process), so the
    value is a pure function of the batch content and reproducible across
    runs — which is what lets recovery detect a corrupted log record.
    """
    crc = zlib.crc32(node_batch.stream.encode())
    crc = zlib.crc32(b"#%d@%d" % (node_batch.batch_no, node_batch.node_id),
                     crc)
    for group in (node_batch.out_timeless, node_batch.in_timeless,
                  node_batch.out_timing, node_batch.in_timing):
        # CRC32 is incremental: one call over the half's joined row
        # records equals one call per record.
        crc = zlib.crc32(b"|", crc)
        crc = zlib.crc32(b"".join(
            b"%d,%d,%d,%d;" % row
            for row in zip(group.s, group.p, group.o, group.ts)), crc)
    return crc


@dataclass
class LoggedBatch:
    """One durable log record: a node's halves of one stream batch (the
    node is ``node_batch.node_id``, the sequence number the position in
    the log)."""

    sn: int
    node_batch: NodeBatch
    #: Content CRC written with the record (:func:`batch_checksum`).
    checksum: int


@dataclass
class CheckpointMarker:
    """One completed checkpoint."""

    at_ms: int
    stable_vts: Dict[str, int]
    stable_sn: int


class CheckpointManager:
    """Durable logging plus periodic checkpoint markers."""

    def __init__(self, cost: Optional[CostModel] = None,
                 interval_ms: int = 1_000, num_nodes: int = 1):
        if interval_ms <= 0:
            raise FaultToleranceError(
                f"checkpoint interval must be positive: {interval_ms}")
        if num_nodes < 1:
            raise FaultToleranceError(f"need >= 1 node: {num_nodes}")
        self.cost = cost if cost is not None else CostModel()
        self.interval_ms = interval_ms
        self.num_nodes = num_nodes
        self._log: List[LoggedBatch] = []
        self._markers: List[CheckpointMarker] = []
        #: Interval-grid cell of the last checkpoint (``now // interval``).
        self._last_cell: Optional[int] = None
        self.logging_delays_ms: List[float] = []
        self._entries_since_checkpoint = 0
        #: Duration of the most recent checkpoint (stalls co-scheduled
        #: queries; the paper's p99 growth in §6.8 comes from this).
        self.last_checkpoint_pause_ps = 0

    # -- logging ---------------------------------------------------------
    def log_batch(self, node_batch: NodeBatch, sn: int,
                  meter: Optional[LatencyMeter] = None) -> None:
        """Durably log one node batch (synchronous, on the injection path)."""
        delay = LatencyMeter()
        delay.charge(self.cost.log_entry_ns,
                     times=max(1, node_batch.num_inserts), category="log")
        self.logging_delays_ms.append(delay.ms)
        if meter is not None:
            meter.add(delay)
        self._log.append(LoggedBatch(sn, node_batch,
                                     batch_checksum(node_batch)))
        self._entries_since_checkpoint += node_batch.num_inserts

    # -- checkpoints ------------------------------------------------------
    def maybe_checkpoint(self, now_ms: int, coordinator: "Coordinator",
                         sources: Dict[str, "StreamSource"]) -> bool:
        """Checkpoint when the interval grid is crossed; returns whether
        one ran.

        The schedule is *grid-aligned* (a checkpoint fires when
        ``now // interval`` exceeds the last checkpoint's cell) rather
        than elapsed-interval based: an engine that skipped checkpoints
        while degraded re-joins the exact schedule of a never-faulted run
        at the next grid boundary, which is what bounds the window in
        which recovery perturbs checkpoint-pause charges.
        """
        cell = now_ms // self.interval_ms
        if self._last_cell is None:
            self._last_cell = cell
            return False
        if cell <= self._last_cell:
            return False
        self.checkpoint(now_ms, coordinator, sources)
        return True

    def checkpoint(self, now_ms: int, coordinator: "Coordinator",
                   sources: Dict[str, "StreamSource"]) -> CheckpointMarker:
        """Record the stable state and acknowledge the sources."""
        stable = coordinator.stable_vts().as_dict()
        marker = CheckpointMarker(at_ms=now_ms, stable_vts=stable,
                                  stable_sn=coordinator.stable_sn)
        self._markers.append(marker)
        self._last_cell = now_ms // self.interval_ms
        # Incremental checkpoint: persist everything logged since the last
        # marker.  Nodes write their local logs in parallel; queries
        # scheduled during the write observe one node's write time.
        pause = LatencyMeter()
        per_node = -(-self._entries_since_checkpoint // self.num_nodes)
        pause.charge(self.cost.log_entry_ns, times=per_node,
                     category="ckpt")
        self.last_checkpoint_pause_ps = pause.ps
        self._entries_since_checkpoint = 0
        for stream, source in sources.items():
            source.ack(stable.get(stream, 0))
        return marker

    # -- recovery inputs ------------------------------------------------------
    def logged_for_node(self, node_id: int) -> List[LoggedBatch]:
        """The durable log of one node, in original append order."""
        return [entry for entry in self._log
                if entry.node_batch.node_id == node_id]

    @property
    def num_checkpoints(self) -> int:
        return len(self._markers)

    @property
    def latest_marker(self) -> Optional[CheckpointMarker]:
        return self._markers[-1] if self._markers else None

    def mean_logging_delay_ms(self) -> float:
        if not self.logging_delays_ms:
            return 0.0
        return sum(self.logging_delays_ms) / len(self.logging_delays_ms)


@dataclass
class RecoveryReport:
    """What one :func:`recover_node` run did, with its simulated cost."""

    node_id: int
    replayed_entries: int = 0
    rejected_entries: int = 0
    rebuilt_batches: List[Tuple[str, int]] = field(default_factory=list)
    meter: LatencyMeter = field(default_factory=LatencyMeter)


def _rebuild_from_upstream(engine: "WukongSEngine", entry: LoggedBatch,
                           meter: LatencyMeter) -> NodeBatch:
    """Re-derive a corrupt log record's node batch from upstream backup.

    The source replays the original stream batch (priced as a one-way TCP
    transfer — sources live outside the rack), and the stateless
    Adaptor/Dispatcher pair re-derives the node's halves.  String IDs were
    all allocated on first injection, so re-encoding is deterministic and
    the rebuilt batch is bit-identical to the uncorrupted record.
    """
    damaged = entry.node_batch
    corrupt = f"log record for batch {damaged.stream}#{damaged.batch_no} " \
        f"is corrupt"
    source = engine.sources.get(damaged.stream)
    if source is None:
        raise FaultToleranceError(
            f"{corrupt} and stream has no attached source to rebuild from")
    try:
        replayed = [b for b in source.replay(damaged.batch_no - 1)
                    if b.batch_no == damaged.batch_no]
    except StreamError as exc:
        raise FaultToleranceError(
            f"{corrupt} and upstream backup was trimmed: {exc}") from exc
    if not replayed:
        raise FaultToleranceError(
            f"{corrupt} and upstream backup no longer holds the batch")
    batch = replayed[0]
    payload = engine.config.memory.tuple_bytes * len(batch.tuples)
    engine.cluster.fabric.replay_transfer(meter, payload, category="replay")
    adapted = engine.adaptors[batch.stream].adapt(batch, meter=meter)
    node_batches = engine.dispatchers[batch.stream].dispatch(adapted,
                                                             meter=meter)
    return node_batches[damaged.node_id]


def replay_log(engine: "WukongSEngine", entries: List[LoggedBatch],
               slices: Optional[Dict[Tuple[str, int], IndexSlice]],
               meter: LatencyMeter) -> List[Tuple[str, int]]:
    """The one replay of the durable log: re-apply ``entries``, in order.

    :func:`recover_node` passes one node's records and ``slices=None``
    (the stream index outlived the crash); cold start
    (``repro.core.durability.restore_engine``) passes every record and an
    empty dict that collects one :class:`IndexSlice` per ``(stream,
    batch_no)``.  Each record's CRC is verified first; a corrupt record
    is rebuilt from upstream backup (§5's at-least-once story: the source
    still buffers everything past the last acknowledged checkpoint) and
    replaces the corrupt one.  Returns the rebuilt ``(stream, batch_no)``s.
    """
    rebuilt: List[Tuple[str, int]] = []
    for entry in entries:
        if batch_checksum(entry.node_batch) != entry.checksum:
            entry.node_batch = _rebuild_from_upstream(engine, entry, meter)
            entry.checksum = batch_checksum(entry.node_batch)
            rebuilt.append((entry.node_batch.stream,
                            entry.node_batch.batch_no))
        node_batch = entry.node_batch
        index_slice = None if slices is None else slices.setdefault(
            (node_batch.stream, node_batch.batch_no),
            IndexSlice(node_batch.batch_no))
        engine.injectors[node_batch.node_id].inject(node_batch, entry.sn,
                                                    index_slice, meter=meter)
    return rebuilt


def recover_node(engine: "WukongSEngine", node_id: int) -> RecoveryReport:
    """Rebuild a crashed node's state from durable inputs.

    Order matters: the initial data is reloaded first, then the durable
    log in its original sequence (:func:`replay_log`, which verifies each
    record's CRC and rebuilds a corrupt one from upstream), so every
    value-list offset matches the pre-crash layout and the (shared)
    stream-index spans stay valid.

    All recovery work is charged to the returned report's meter — never to
    injection records or query meters, keeping the healthy path's
    simulated time independent of how a run was healed.
    """
    manager = engine.checkpoints  # engine.recover_node refuses None
    cluster = engine.cluster
    if cluster.nodes[node_id].alive:
        raise FaultToleranceError(f"node {node_id} is not down")
    cluster.restart_node(node_id)
    report = RecoveryReport(node_id=node_id)
    meter = report.meter
    cost = manager.cost

    # 1. Reload the node's halves of the initially stored data.
    halves = len(engine.store.insert_triples(
        map(engine.strings.encode_triple, engine._initial_triples),
        node=node_id))
    meter.charge(cost.insert_entry_ns, times=halves, category="recovery")

    # 2. Re-apply the durable log in original order (timeless halves to the
    #    persistent store, timing halves as fresh transient slices).
    entries = manager.logged_for_node(node_id)
    report.rebuilt_batches = replay_log(engine, entries, None, meter)
    report.rejected_entries = len(report.rebuilt_batches)
    report.replayed_entries = len(entries)
    # The rebuilt shard reads at the cluster's scalarization frontier at
    # once, not from the next compaction on (the replay wrote raw SNs).
    engine.store.shards[node_id].compact(
        engine.coordinator.compacted_through)

    # 3. Drop transient slices that expired while the node was down, then
    #    let the coordinator resume normal SN publication.
    engine.gc.run(engine.clock.now_ms)
    engine.coordinator.mark_node_up(node_id)
    return report
