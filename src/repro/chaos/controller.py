"""The chaos controller: executing a FaultPlan against a live engine.

The controller attaches to one engine (``engine.chaos = controller``) and
drives its fault hooks:

* :meth:`ChaosController.on_tick` runs at the top of every
  :meth:`~repro.core.engine.WukongSEngine.step` — heals and releases first
  (recoveries, hold expiries, straggle ends), then new faults;
* :meth:`intercept_delivery` sees every batch a source hands the engine
  and may hold or drop it in flight;
* :meth:`admit_injection` is consulted between batch injections and is
  where an armed mid-tick kill fires;
* :meth:`blocks_progress` / :meth:`suppresses_padding` keep the engine
  globally stalled (and un-padded) while a message fault is outstanding,
  preserving the global injection order that recovery equivalence needs.

Everything the controller does is chronicled in :attr:`events` (JSON-safe,
golden-recordable), and every simulated cost it causes — replay transfers
for dropped batches, the whole recovery path — lands on the controller's
own meter (or the per-recovery report meters), never on injection records
or query meters: a healed run's healthy-path latencies stay comparable to
a never-faulted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import (CorruptRecord, DelayMessage, DropMessage,
                              FaultPlan, KillNode, Straggler)
from repro.core.checkpoint import RecoveryReport, batch_checksum
from repro.core.dispatcher import NodeBatch
from repro.errors import ChaosError
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import LatencyMeter
from repro.streams.stream import StreamBatch


@dataclass
class ChaosEvent:
    """One thing the controller did, at one simulated instant."""

    tick: int
    at_ms: int
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"tick": self.tick, "at_ms": self.at_ms, "kind": self.kind,
                "detail": dict(sorted(self.detail.items()))}


def _tampered_copy(node_batch: NodeBatch) -> NodeBatch:
    """A corrupted copy of a node batch (the original is never mutated).

    Batch columns are shared — by a node's out and in halves, and by
    other nodes' halves and log records of the same batch — so in-place
    tampering would corrupt *healthy* records too; instead the log entry
    is pointed at a copy whose first tuple has a flipped timestamp (a
    fresh ``ts`` column; the other columns stay shared, as columns are
    never mutated).
    """
    groups = {name: getattr(node_batch, name)
              for name in ("out_timeless", "in_timeless",
                           "out_timing", "in_timing")}
    for name, columns in groups.items():
        if columns:
            stamps = list(columns.ts)
            stamps[0] ^= 1
            groups[name] = EncodedColumns(columns.s, columns.p, columns.o,
                                          stamps)
            break
    return NodeBatch(stream=node_batch.stream, batch_no=node_batch.batch_no,
                     node_id=node_batch.node_id, **groups)


class ChaosController:
    """Deterministic fault injection for one engine run."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.engine = None
        #: Costs of the chaos/recovery path (replay transfers, recoveries).
        self.meter = LatencyMeter()
        self.events: List[ChaosEvent] = []
        self.reports: List[RecoveryReport] = []
        #: Simulated time of the first fault effect / last heal (None until
        #: one happens); the equivalence harness derives its opaque window
        #: from these.
        self.first_fault_ms: Optional[int] = None
        self.heal_ms: Optional[int] = None
        self._tick = 0

        self._kills_at: Dict[int, List[KillNode]] = {}
        self._recovers_at: Dict[int, List[int]] = {}
        self._straggle_on: Dict[int, List[Straggler]] = {}
        self._straggle_off: Dict[int, List[int]] = {}
        self._corrupts_at: Dict[int, List[CorruptRecord]] = {}
        self._delays: Dict[Tuple[str, int], DelayMessage] = {}
        self._drops: Dict[Tuple[str, int], DropMessage] = {}
        #: stream -> [(release tick, batch)], kept sorted by batch number.
        self._held: Dict[str, List[Tuple[int, StreamBatch]]] = {}
        #: stream -> [(detect tick, batch_no)], kept sorted by batch number.
        self._lost: Dict[str, List[Tuple[int, int]]] = {}
        self._armed_kill: Optional[Tuple[KillNode, int]] = None

        for fault in plan.faults:
            if isinstance(fault, KillNode):
                self._kills_at.setdefault(fault.at_tick, []).append(fault)
            elif isinstance(fault, DelayMessage):
                self._delays[(fault.stream, fault.batch_no)] = fault
            elif isinstance(fault, DropMessage):
                self._drops[(fault.stream, fault.batch_no)] = fault
            elif isinstance(fault, Straggler):
                self._straggle_on.setdefault(fault.at_tick, []).append(fault)
            elif isinstance(fault, CorruptRecord):
                self._corrupts_at.setdefault(fault.at_tick, []).append(fault)
            else:
                raise ChaosError(f"unknown fault type: {fault!r}")

    # -- attachment -------------------------------------------------------
    def attach(self, engine, ticks: Optional[int] = None) -> None:
        """Validate the plan against ``engine`` and hook in."""
        if engine.checkpoints is None and (self._kills_at
                                           or self._corrupts_at):
            raise ChaosError(
                "kill/corrupt faults need fault_tolerance=True in "
                "EngineConfig (recovery replays the durable log)")
        cfg = engine.config
        tpc = max(1, cfg.checkpoint_interval_ms // cfg.batch_interval_ms)
        horizon = ticks if ticks is not None else 1 << 30
        self.plan.validate(cfg.num_nodes, list(engine.schemas), horizon,
                           ticks_per_checkpoint=tpc)
        for stream, _ in list(self._delays) + list(self._drops):
            if stream not in engine.schemas:
                raise ChaosError(f"unknown stream in plan: {stream!r}")
        self.engine = engine
        engine.chaos = self

    # -- engine hooks -------------------------------------------------------
    def blocks_progress(self) -> bool:
        """True while any message fault is outstanding: injection stalls
        *globally*, so cross-stream injection order is preserved."""
        return bool(self._held) or bool(self._lost)

    def suppresses_padding(self, stream: str) -> bool:
        """Auto-padding must not fabricate a batch that is merely in
        flight — it would collide with the release of the real one."""
        return stream in self._held or stream in self._lost

    def on_tick(self, engine, now_ms: int) -> None:
        """Apply everything scheduled for this tick: heals before faults."""
        self._tick += 1
        tick = self._tick
        if self._armed_kill is not None:
            # Armed last tick but fewer batches were injected than the
            # trigger count: fire at the top of this tick instead.
            kill, _ = self._armed_kill
            self._armed_kill = None
            self._kill_now(engine, kill, now_ms)
        for node_id in self._recovers_at.pop(tick, ()):
            report = engine.recover_node(node_id)
            self.reports.append(report)
            self.meter.add(report.meter)
            self.heal_ms = now_ms
            self._note(tick, now_ms, "recover", node_id=node_id,
                       replayed=report.replayed_entries,
                       rejected=report.rejected_entries,
                       rebuilt=list(report.rebuilt_batches))
            tracer = getattr(engine, "tracer", None)
            if tracer is not None:
                tracer.event_span(
                    "recover", "chaos", ps=report.meter.ps,
                    anchor_ms=now_ms, node_id=node_id,
                    replayed=report.replayed_entries,
                    rejected=report.rejected_entries)
        for node_id in self._straggle_off.pop(tick, ()):
            engine.injectors[node_id].slowdown = 1.0
            self._note(tick, now_ms, "straggle_off", node_id=node_id)
        self._release_due(engine, now_ms)
        for fault in self._straggle_on.pop(tick, ()):
            engine.injectors[fault.node_id].slowdown = fault.factor
            self._straggle_off.setdefault(fault.end_tick, []) \
                .append(fault.node_id)
            self._first_fault(now_ms)
            self._note(tick, now_ms, "straggle_on", node_id=fault.node_id,
                       factor=fault.factor)
        for fault in self._corrupts_at.pop(tick, ()):
            self._corrupt(engine, fault, now_ms)
        for kill in self._kills_at.pop(tick, ()):
            if kill.after_batches > 0:
                self._armed_kill = (kill, kill.after_batches)
                self._note(tick, now_ms, "arm_kill", node_id=kill.node_id,
                           after_batches=kill.after_batches)
            else:
                self._kill_now(engine, kill, now_ms)

    def intercept_delivery(self, engine, batch: StreamBatch) -> bool:
        """Hold or drop a batch the source just handed over; False lets it
        through untouched."""
        key = (batch.stream, batch.batch_no)
        now_ms = engine.clock.now_ms
        delay = self._delays.pop(key, None)
        if delay is not None:
            queue = self._held.setdefault(batch.stream, [])
            queue.append((self._tick + delay.hold_ticks, batch))
            queue.sort(key=lambda item: item[1].batch_no)
            self._first_fault(now_ms)
            self._note(self._tick, now_ms, "hold", stream=batch.stream,
                       batch_no=batch.batch_no,
                       until_tick=self._tick + delay.hold_ticks)
            return True
        drop = self._drops.pop(key, None)
        if drop is not None:
            queue = self._lost.setdefault(batch.stream, [])
            queue.append((self._tick + drop.detect_ticks, batch.batch_no))
            queue.sort(key=lambda item: item[1])
            self._first_fault(now_ms)
            self._note(self._tick, now_ms, "drop", stream=batch.stream,
                       batch_no=batch.batch_no,
                       detect_tick=self._tick + drop.detect_ticks)
            return True
        return False

    def admit_injection(self, engine) -> bool:
        """Between-batch checkpoint for armed mid-tick kills."""
        if self._armed_kill is None:
            return True
        kill, remaining = self._armed_kill
        if remaining > 0:
            self._armed_kill = (kill, remaining - 1)
            return True
        self._armed_kill = None
        self._kill_now(engine, kill, engine.clock.now_ms, mid_tick=True)
        return False

    # -- fault mechanics -----------------------------------------------------
    def _kill_now(self, engine, kill: KillNode, now_ms: int,
                  mid_tick: bool = False) -> None:
        engine.crash_node(kill.node_id)
        recover_tick = max(self._tick + 1, kill.recover_tick)
        self._recovers_at.setdefault(recover_tick, []).append(kill.node_id)
        self._first_fault(now_ms)
        self._note(self._tick, now_ms, "kill", node_id=kill.node_id,
                   mid_tick=mid_tick, recover_tick=recover_tick)

    def _release_due(self, engine, now_ms: int) -> None:
        """Release held batches and re-fetch detected losses.

        Only the longest *due prefix* in batch order is released: a held
        batch never overtakes an earlier one that is still outstanding,
        so per-stream batch order survives any hold pattern.
        """
        for stream in list(self._held):
            queue = self._held[stream]
            released: List[StreamBatch] = []
            while queue and queue[0][0] <= self._tick:
                released.append(queue.pop(0)[1])
            if not queue:
                del self._held[stream]
            for batch in released:
                self._requeue(engine, stream, batch)
                self._note(self._tick, now_ms, "release", stream=stream,
                           batch_no=batch.batch_no)
                self.heal_ms = now_ms
        for stream in list(self._lost):
            queue = self._lost[stream]
            refetched: List[StreamBatch] = []
            while queue and queue[0][0] <= self._tick:
                batch_no = queue.pop(0)[1]
                refetched.append(self._refetch(engine, stream, batch_no))
            if not queue:
                del self._lost[stream]
            for batch in refetched:
                self._requeue(engine, stream, batch)
                self._note(self._tick, now_ms, "refetch", stream=stream,
                           batch_no=batch.batch_no)
                self.heal_ms = now_ms

    @staticmethod
    def _requeue(engine, stream: str, batch: StreamBatch) -> None:
        """Slot a released batch back into pending *by batch number*.

        Pending already holds batches delivered both before the hold began
        (smaller numbers, stalled by the global freeze) and after it
        (larger numbers), so neither end of the deque is correct in
        general — the batch goes exactly where the gap is.
        """
        pending = engine._pending[stream]
        position = sum(1 for queued in pending
                       if queued.batch_no < batch.batch_no)
        pending.insert(position, batch)

    def _refetch(self, engine, stream: str, batch_no: int) -> StreamBatch:
        """Recover a dropped batch from the source's upstream backup."""
        source = engine.sources.get(stream)
        if source is None:
            raise ChaosError(f"dropped batch {stream}#{batch_no} has no "
                             f"source to re-fetch from")
        matches = [b for b in source.replay(batch_no - 1)
                   if b.batch_no == batch_no]
        if not matches:
            raise ChaosError(
                f"upstream backup of {stream} no longer holds batch "
                f"#{batch_no}; it was acknowledged while the drop was "
                f"outstanding (plan violates the no-checkpoint constraint)")
        batch = matches[0]
        payload = engine.config.memory.tuple_bytes * len(batch.tuples)
        engine.cluster.fabric.replay_transfer(self.meter, payload,
                                              category="replay")
        return batch

    def _corrupt(self, engine, fault: CorruptRecord, now_ms: int) -> None:
        """Damage the newest still-rebuildable log record of one node."""
        manager = engine.checkpoints
        candidates = []
        for entry in manager.logged_for_node(fault.node_id):
            source = engine.sources.get(entry.node_batch.stream)
            acked = source.acked_through if source is not None else 1 << 60
            if entry.node_batch.batch_no > acked:
                candidates.append(entry)
        if not candidates:
            raise ChaosError(
                f"node {fault.node_id} has no un-acknowledged log record "
                f"to corrupt at tick {self._tick} (schedule the fault "
                f"between checkpoints)")
        entry = candidates[-1]
        if entry.node_batch.num_inserts > 0:
            entry.node_batch = _tampered_copy(entry.node_batch)
            mode = "payload"
        else:
            # An empty batch has nothing to flip; damage the stored CRC
            # instead — recovery still sees content/checksum disagreement.
            entry.checksum = (entry.checksum ^ 0x5A5A5A5A) & 0xFFFFFFFF
            mode = "checksum"
        assert batch_checksum(entry.node_batch) != entry.checksum
        self._first_fault(now_ms)
        self._note(self._tick, now_ms, "corrupt", node_id=fault.node_id,
                   stream=entry.node_batch.stream,
                   batch_no=entry.node_batch.batch_no, mode=mode)

    # -- bookkeeping -------------------------------------------------------
    def _first_fault(self, now_ms: int) -> None:
        if self.first_fault_ms is None:
            self.first_fault_ms = now_ms

    def _note(self, tick: int, at_ms: int, kind: str, **detail) -> None:
        self.events.append(ChaosEvent(tick=tick, at_ms=at_ms, kind=kind,
                                      detail=detail))

    @property
    def outstanding(self) -> int:
        """Scheduled effects not yet applied (0 once the plan has fully
        played out and healed)."""
        return (sum(len(v) for v in self._kills_at.values())
                + sum(len(v) for v in self._recovers_at.values())
                + sum(len(v) for v in self._straggle_on.values())
                + sum(len(v) for v in self._straggle_off.values())
                + sum(len(v) for v in self._corrupts_at.values())
                + len(self._delays) + len(self._drops)
                + sum(len(v) for v in self._held.values())
                + sum(len(v) for v in self._lost.values())
                + (1 if self._armed_kill is not None else 0))
