"""The time-based transient store (§4.1, Fig. 7).

Timing data (e.g. GPS positions) is only ever read by continuous queries
within their windows, so Wukong+S keeps it out of the persistent store
entirely: each stream gets a per-node sequence of *transient slices*, one
per mini-batch, arranged in time order inside a ring buffer with a fixed
memory budget.  The injector appends new slices on the late side; the
garbage collector frees expired slices from the early side — either
periodically or eagerly when the ring buffer fills.

Sharding matches the persistent store (subject owner for out-edges, object
owner for in-edges), co-locating a stream's timing and timeless data.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import StoreError
from repro.rdf.ids import DIR_IN, DIR_OUT, Key, make_key
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel


class TransientSlice:
    """Timing tuples of one mini-batch, indexed like the base store."""

    __slots__ = ("batch_no", "kv", "subjects", "num_tuples")

    def __init__(self, batch_no: int):
        self.batch_no = batch_no
        self.kv: Dict[Key, List[int]] = {}
        #: (eid, d) -> vertices with such an edge in this slice.
        self.subjects: Dict[Tuple[int, int], Set[int]] = {}
        self.num_tuples = 0

    def add_half(self, vertex: List[int], preds: List[int],
                 other: List[int], d: int) -> None:
        """Index one half's rows, in row order: ``other[i]`` under key
        ``[vertex[i]|preds[i]|d]``, and ``vertex[i]`` as a member of
        ``(preds[i], d)``."""
        kv, subjects = self.kv, self.subjects
        for v, p, value in zip(vertex, preds, other):
            kv.setdefault(make_key(v, p, d), []).append(value)
            subjects.setdefault((p, d), set()).add(v)

    def memory_bytes(self, model: MemoryModel) -> int:
        total = 0
        for values in self.kv.values():
            total += model.key_bytes + model.entry_bytes * len(values)
        return total


class TransientStore:
    """One stream's transient slices on one node.

    ``budget_bytes`` models the fixed ring-buffer budget: when an append
    would exceed it, the earliest slices are *eagerly* collected (the
    paper's explicit-GC-on-full path).  A slice may only be evicted that
    way once it is expired for every registered query; violating that is a
    configuration error (the budget is too small for the windows in use).
    """

    def __init__(self, stream: str, cost: Optional[CostModel] = None,
                 budget_bytes: Optional[int] = None,
                 memory: Optional[MemoryModel] = None):
        self.stream = stream
        self.cost = cost if cost is not None else CostModel()
        self.memory = memory if memory is not None else MemoryModel()
        self.budget_bytes = budget_bytes
        self._slices: Deque[TransientSlice] = deque()
        self._expired_floor = 0  # highest batch_no known collectable
        self.evictions = 0

    # -- writes ---------------------------------------------------------
    def append_slice(self, batch_no: int, out_tuples: EncodedColumns,
                     in_tuples: EncodedColumns,
                     meter: Optional[LatencyMeter] = None) -> TransientSlice:
        """Build and append the slice for ``batch_no``.

        ``out_tuples`` are tuples whose subject lives on this node;
        ``in_tuples`` those whose object does (the two overlap when both
        endpoints are local).
        """
        if self._slices and batch_no <= self._slices[-1].batch_no:
            raise StoreError(
                f"slices must append in time order: #{batch_no} after "
                f"#{self._slices[-1].batch_no}")
        piece = TransientSlice(batch_no)
        piece.add_half(out_tuples.s, out_tuples.p, out_tuples.o, DIR_OUT)
        piece.add_half(in_tuples.o, in_tuples.p, in_tuples.s, DIR_IN)
        piece.num_tuples = len(out_tuples)
        inserted = len(out_tuples) + len(in_tuples)
        if meter is not None and inserted:
            meter.charge(self.cost.insert_entry_ns, times=inserted,
                         category="injection")
        self._slices.append(piece)
        self._enforce_budget(meter)
        return piece

    def note_expired(self, batch_no: int) -> None:
        """Record that slices through ``batch_no`` are expired for all queries."""
        if batch_no > self._expired_floor:
            self._expired_floor = batch_no

    def _enforce_budget(self, meter: Optional[LatencyMeter]) -> None:
        if self.budget_bytes is None:
            return
        while self.memory_bytes() > self.budget_bytes and self._slices:
            earliest = self._slices[0]
            if earliest.batch_no > self._expired_floor:
                raise StoreError(
                    f"transient budget of stream {self.stream} too small: "
                    f"slice #{earliest.batch_no} is still live")
            self._evict_one(meter)

    def _evict_one(self, meter: Optional[LatencyMeter]) -> None:
        piece = self._slices.popleft()
        if meter is not None:
            meter.charge(self.cost.gc_entry_ns,
                         times=sum(len(v) for v in piece.kv.values()),
                         category="gc")
        self.evictions += 1

    # -- GC -------------------------------------------------------------
    def collect(self, before_batch_no: int,
                meter: Optional[LatencyMeter] = None) -> int:
        """Free every slice with batch_no < ``before_batch_no``.

        Returns the number of slices freed.  Used by the background GC
        thread once windows slide past the data.
        """
        self.note_expired(before_batch_no - 1)
        freed = 0
        while self._slices and self._slices[0].batch_no < before_batch_no:
            self._evict_one(meter)
            freed += 1
        return freed

    # -- reads ------------------------------------------------------------
    def lookup(self, vid: int, eid: int, d: int, first_batch: int,
               last_batch: int,
               meter: Optional[LatencyMeter] = None) -> List[int]:
        """Neighbour vids within the batch range [first, last] (inclusive)."""
        key = make_key(vid, eid, d)
        found: List[int] = []
        probes = 0
        for piece in self._slices:
            if piece.batch_no < first_batch:
                continue
            if piece.batch_no > last_batch:
                break
            probes += 1
            values = piece.kv.get(key)
            if values:
                found.extend(values)
        if meter is not None and probes:
            meter.charge(self.cost.hash_probe_ns, times=probes,
                         category="store")
            meter.charge(self.cost.scan_entry_ns, times=len(found),
                         category="store")
        return found

    def vertices(self, eid: int, d: int, first_batch: int, last_batch: int,
                 meter: Optional[LatencyMeter] = None) -> List[int]:
        """Distinct vertices with an (eid, d) edge in the batch range."""
        out: List[int] = []
        seen: Set[int] = set()
        probes = 0
        scanned = 0
        for piece in self._slices:
            if piece.batch_no < first_batch:
                continue
            if piece.batch_no > last_batch:
                break
            probes += 1
            members = piece.subjects.get((eid, d), ())
            scanned += len(members)
            for vid in members:
                if vid not in seen:
                    seen.add(vid)
                    out.append(vid)
        if meter is not None and probes:
            meter.charge(self.cost.hash_probe_ns, times=probes,
                         category="store")
            meter.charge(self.cost.scan_entry_ns, times=scanned,
                         category="store")
        return out

    # -- stats ---------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        return len(self._slices)

    @property
    def earliest_batch(self) -> Optional[int]:
        return self._slices[0].batch_no if self._slices else None

    def memory_bytes(self) -> int:
        return sum(piece.memory_bytes(self.memory) for piece in self._slices)
