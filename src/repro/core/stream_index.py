"""The stream index with locality-aware partitioning (§4.2, Fig. 8-9).

After the persistent store absorbs a stream batch, that batch's timeless
tuples are scattered through value lists all over the store.  The stream
index is the fast path back to them: per stream, a time-ordered sequence of
*index slices*, one per batch, whose entries map a store key to the *span*
(fat pointer: owner node + offset + length) of the value entries that batch
contributed.  A continuous query reading window batches [i, j] unions the
span lookups of slices i..j and dereferences each span with at most one
RDMA read — no key lookup, no scan of unrelated entries, search space
independent of the stored-data size.

The index also carries the only copy of timeless tuples' timestamps, at
batch granularity; the persistent store stays timestamp-free.

Locality-aware partitioning: rather than co-locating index with data (which
splits small continuous queries across nodes), the full index of a stream
is replicated to exactly the nodes where registered queries consume that
stream (*query* locality, not data locality).  Replicas are registered
on demand and dropped when the last interested query unregisters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, islice
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import StoreError, StreamError
from repro.rdf.ids import _EID_SHIFT, _VID_SHIFT, Key
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel

#: One index entry: ``(owner, offset, length)`` — the node whose shard
#: holds the span and the span's window into the key's value list.  A
#: tuple of ints only, so the collector untracks it at its first young
#: collection and the window-long entries never reach the old generation.
OwnedSpan = Tuple[int, int, int]

#: The low bits of a packed key that identify its ``(eid, d)`` group.
_PRED_MASK = (1 << _VID_SHIFT) - 1


def _append_coalesced(spans: List[OwnedSpan], owner: int, offset: int,
                      length: int) -> None:
    """Add the span ``(owner, offset, length)`` to one key's span list.

    The coalescing rule, stated once: a span that the same owner holds
    and that starts exactly where the list's last span ends extends that
    last span; anything else (another owner, an offset gap) starts a new
    one.  Writes append each key's entries contiguously and batches
    arrive in order, so one key's spans from consecutive batches usually
    collapse to a single fat pointer — one RDMA read per key, §5.
    """
    if spans:
        last_owner, last_offset, last_length = spans[-1]
        if last_owner == owner and last_offset + last_length == offset:
            spans[-1] = (owner, last_offset, last_length + length)
            return
    spans.append((owner, offset, length))


class IndexSlice:
    """Stream-index entries contributed by one batch: one span per key."""

    __slots__ = ("batch_no", "entries", "_vertices")

    def __init__(self, batch_no: int):
        self.batch_no = batch_no
        self.entries: Dict[Key, OwnedSpan] = {}
        self._vertices: Optional[Dict[Tuple[int, int], Set[int]]] = None

    def add_batch_spans(self, owner: int,
                        spans: List[Tuple[Key, int, int]]) -> None:
        """Record the ``(key, offset, length)`` spans one column write
        returned (one per key) as held by ``owner``.

        Each key is written by exactly one column write per batch: the
        dispatcher routes each half to the owner of the key's vertex,
        the injector's threads partition by that vertex, and the two
        halves differ in the direction bit.  A call naming a key the
        slice already holds, or one key twice, is refused with
        :class:`StoreError` before anything is recorded.
        """
        entries = self.entries
        fresh = {key: (owner, offset, length)
                 for key, offset, length in spans}
        if len(fresh) < len(spans) or not entries.keys().isdisjoint(fresh):
            seen: Set[Key] = set()
            for key, _, _ in spans:
                if key in entries or key in seen:
                    raise StoreError(
                        f"key {key} written twice into index slice "
                        f"#{self.batch_no}")
                seen.add(key)
        entries.update(fresh)
        self._vertices = None

    @property
    def vertices(self) -> Dict[Tuple[int, int], Set[int]]:
        """(eid, d) -> vertices that gained an (eid, d) edge in this batch.

        Built from ``entries`` on first read and memoized: slices are
        immutable once appended, and building in entry order gives each
        set the insertion history an eager build would have had, so set
        iteration order does not depend on when the groups are read.
        """
        groups = self._vertices
        if groups is None:
            groups = self._vertices = {}
            by_bucket: Dict[int, Set[int]] = {}
            for key in self.entries:
                bucket = key & _PRED_MASK
                members = by_bucket.get(bucket)
                if members is None:
                    members = by_bucket[bucket] = \
                        groups[(bucket >> _EID_SHIFT, bucket & 1)] = set()
                members.add(key >> _VID_SHIFT)
        return groups

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def memory_bytes(self, model: MemoryModel) -> int:
        return len(self.entries) \
            * (model.index_key_bytes + model.fat_pointer_bytes)


class StreamIndex:
    """All live index slices of one stream (logical content; see registry
    for replication).

    The index is the time-ordered slice deque and nothing else: no
    per-key copy of a slice is kept.  A window is read through a
    :class:`ColumnarSlice`, which holds the slices of its batch range and
    probes each slice's own entries; the simulated charge is one
    ``index_probe_ns`` per live slice in the range (counted by bisecting
    the sorted batch-number list).
    """

    def __init__(self, stream: str, cost: Optional[CostModel] = None,
                 memory: Optional[MemoryModel] = None):
        self.stream = stream
        self.cost = cost if cost is not None else CostModel()
        self.memory = memory if memory is not None else MemoryModel()
        self._slices: Deque[IndexSlice] = deque()
        #: Sorted batch numbers of the live slices (mirrors ``_slices``).
        self._batch_nos: List[int] = []
        #: Batches strictly below this were garbage-collected (time-scoped
        #: one-shot queries refuse to read reclaimed history).
        self.collected_before = 1

    # -- building ---------------------------------------------------------
    def append_slice(self, piece: IndexSlice,
                     meter: Optional[LatencyMeter] = None) -> None:
        if self._slices and piece.batch_no <= self._slices[-1].batch_no:
            raise StoreError(
                f"index slices must append in time order: #{piece.batch_no} "
                f"after #{self._slices[-1].batch_no}")
        if meter is not None:
            meter.charge(self.cost.insert_entry_ns, times=piece.num_entries,
                         category="indexing")
        self._slices.append(piece)
        self._batch_nos.append(piece.batch_no)

    # -- reads ------------------------------------------------------------
    def _probes_in(self, first_batch: int, last_batch: int) -> int:
        """Live slices in [first, last]: the simulated probe count."""
        return bisect_right(self._batch_nos, last_batch) \
            - bisect_left(self._batch_nos, first_batch)

    def slices_in(self, first_batch: int,
                  last_batch: int) -> List[IndexSlice]:
        """The live slices with ``batch_no`` in [first, last], oldest first.

        Wall-clock-only helper for the window view; simulated probe
        charges stay with the read that consumes the slices.
        """
        lo = bisect_left(self._batch_nos, first_batch)
        hi = bisect_right(self._batch_nos, last_batch)
        if lo == hi:
            return []
        return list(islice(self._slices, lo, hi))

    # -- GC ----------------------------------------------------------------
    def collect(self, before_batch_no: int,
                meter: Optional[LatencyMeter] = None) -> int:
        """Drop slices with batch_no < ``before_batch_no``; returns count."""
        if before_batch_no > self.collected_before:
            self.collected_before = before_batch_no
        freed = 0
        while self._slices and self._slices[0].batch_no < before_batch_no:
            piece = self._slices.popleft()
            del self._batch_nos[0]
            if meter is not None:
                meter.charge(self.cost.gc_entry_ns, times=piece.num_entries,
                             category="gc")
            freed += 1
        return freed

    # -- stats ---------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        return len(self._slices)

    @property
    def earliest_batch(self) -> Optional[int]:
        return self._slices[0].batch_no if self._slices else None

    def memory_bytes(self) -> int:
        """Bytes of one replica of this index."""
        return sum(piece.memory_bytes(self.memory) for piece in self._slices)


#: Sentinel distinguishing "never looked up" from a cached absent key.
_MISSING = object()


class _KeyColumn:
    """Flat window column of one key: values plus replayable geometry.

    ``values`` is the concatenation of the entries the window's batches
    appended to the key's value list, in batch order.  ``merged`` is the
    geometry a reader is charged from: the batches' spans in batch order,
    coalesced by :func:`_append_coalesced` (same owner and contiguous
    offsets fold into one span), priced at one remote read per span held
    off the reader's home node plus one entry scan per value — without
    re-reading the store.  ``batch_counts`` records how many
    values each contributing batch added, which is what lets the expired
    prefix be dropped without a rebuild.
    """

    __slots__ = ("values", "merged", "batch_counts", "_set", "_distinct")

    def __init__(self, values: List[int], merged: List[OwnedSpan],
                 batch_counts: List[Tuple[int, int]]):
        self.values = values
        self.merged = merged
        self.batch_counts = batch_counts
        #: Lazy membership set / duplicate-free verdict; both reset
        #: whenever ``values`` changes.
        self._set: Optional[set] = None
        self._distinct: Optional[bool] = None

    def value_set(self) -> set:
        """Memoized ``set(values)`` (charge-free executor bookkeeping,
        built once per column version instead of once per expansion)."""
        cached = self._set
        if cached is None:
            cached = self._set = set(self.values)
        return cached

    def is_distinct(self) -> bool:
        """True iff ``values`` has no duplicates (memoized bookkeeping —
        the executor's charge-free distinct check, computed once per
        column version instead of once per expansion)."""
        verdict = self._distinct
        if verdict is None:
            verdict = self._distinct = \
                len(self.value_set()) == len(self.values)
        return verdict


class ColumnarSlice:
    """Columnar view of one stream's window ``[first_batch, last_batch]``.

    The one way a window is read: the view materializes each looked-up
    key as one contiguous value column (plus the merged-span geometry its
    readers are charged from, see :class:`_KeyColumn`) and each
    ``(eid, d)`` vertex group as one start column, deduplicated in
    first-occurrence order over the batches.  A one-off view serves a
    time-scoped one-shot read; a registered query keeps one per stream.
    Columns build lazily on first lookup and live across
    window closes: because ``[RANGE r STEP s]`` windows overlap heavily,
    :meth:`advance` reuses the previous close's columns, appending only
    the newly closed batches and dropping the expired prefix — the
    incremental window delta.  All of it is wall-clock bookkeeping; no
    simulated time is charged here (:class:`~repro.core.access.WindowAccess`
    charges each read from ``probes`` and the cached geometry).

    Columns are replaced, never mutated, on advance: callers may hold a
    returned list across a close without seeing it change underneath.

    Safe to cache across failures: value lists only ever append, recovery
    rebuilds a lost shard bit-identically from the durable log, and the
    engine never polls while degraded — so a cached column can never go
    stale relative to the store it was read from.
    """

    __slots__ = ("index", "store", "first_batch", "last_batch", "probes",
                 "_segments", "_columns", "_vertex_cols", "_member_lists",
                 "hits", "misses", "evictions", "delta_hits",
                 "delta_misses")

    def __init__(self, index: StreamIndex, store):
        self.index = index
        self.store = store
        self.first_batch = 0
        self.last_batch = -1
        #: Simulated probe count of the current range (recomputed by
        #: :meth:`advance`; readers charge ``index_probe_ns`` per probe).
        self.probes = 0
        self._segments: List[IndexSlice] = []
        #: key -> _KeyColumn, or None for a cached absent key.
        self._columns: Dict[Key, Optional[_KeyColumn]] = {}
        #: (eid, d) -> (deduped start column, scanned member count).
        self._vertex_cols: Dict[Tuple[int, int],
                                Tuple[List[int], int]] = {}
        #: (batch_no, eid, d) -> list(members): per-slice set-to-list
        #: conversions cached (slices are immutable once appended).
        self._member_lists: Dict[Tuple[int, int, int], List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.delta_hits = 0
        self.delta_misses = 0

    # -- window sliding ----------------------------------------------------
    def advance(self, first_batch: int, last_batch: int) -> "ColumnarSlice":
        """Slide the view to ``[first_batch, last_batch]``.

        The common case (window sliding forward by ``s`` batches) keeps
        every cached column, dropping the expired prefix and appending the
        newly closed batches.  A range that shares no slice with the
        previous one resets the view and rebuilds lazily.
        """
        fresh = self.index.slices_in(first_batch, last_batch)
        old = self._segments
        kept = 0
        if old and fresh:
            # Slices append strictly at the tail and expire strictly from
            # the head, so the overlap (if any) is old's suffix == fresh's
            # prefix, anchored at fresh's first slice.
            first_new = fresh[0]
            for i, piece in enumerate(old):
                if piece is first_new:
                    kept = len(old) - i
                    break
        if old and not kept:
            self._reset()
            self.delta_misses += 1
        elif old:
            self.delta_hits += 1
            for piece in old[:len(old) - kept]:
                self._drop_slice(piece)
        else:
            self.delta_misses += 1  # first materialization
        for piece in fresh[kept:]:
            self._extend_slice(piece)
        self._segments = fresh
        self.first_batch = first_batch
        self.last_batch = last_batch
        self.probes = self.index._probes_in(first_batch, last_batch)
        return self

    def _reset(self) -> None:
        self.evictions += len(self._columns) + len(self._vertex_cols)
        self._columns.clear()
        self._vertex_cols.clear()
        self._member_lists.clear()
        self._segments = []

    def _drop_slice(self, piece: IndexSlice) -> None:
        """Drop one expired batch (always the view's oldest) from every
        cached column it contributed to.

        Iterates the smaller side: slices usually hold far more keys than
        the view has cached columns (only probed keys are cached), so the
        walk goes over the cached columns with membership probes into the
        slice instead of the other way around.
        """
        columns = self._columns
        entries = piece.entries
        if len(entries) <= len(columns):
            keys = [key for key in entries if columns.get(key) is not None]
        else:
            keys = [key for key, col in columns.items() if col is not None
                    and key in entries]
        for key in keys:
            col = columns[key]
            counts = col.batch_counts
            drop = counts[0][1]
            del counts[0]
            if not counts:
                del columns[key]
                self.evictions += 1
                continue
            col.values = col.values[drop:]
            col._set = None
            col._distinct = None
            merged = col.merged
            while drop:
                owner, offset, length = merged[0]
                if length <= drop:
                    drop -= length
                    del merged[0]
                else:
                    merged[0] = (owner, offset + drop, length - drop)
                    drop = 0
        member_lists = self._member_lists
        vertex_cols = self._vertex_cols
        if not vertex_cols and not member_lists:
            return  # no vertex read to undo: leave the groups unbuilt
        for group in piece.vertices:
            member_lists.pop((piece.batch_no,) + group, None)
            if vertex_cols.pop(group, None) is not None:
                self.evictions += 1

    def _extend_slice(self, piece: IndexSlice) -> None:
        """Append one newly closed batch to every cached column it touches
        (uncached keys build lazily on their next lookup).

        Like :meth:`_drop_slice`, walks the smaller of the slice's key set
        and the view's cached columns.
        """
        columns = self._columns
        entries = piece.entries
        shards = self.store.shards
        if len(entries) <= len(columns):
            items = [(key, columns[key], span)
                     for key, span in entries.items() if key in columns]
        else:
            items = [(key, col, entries[key])
                     for key, col in columns.items() if key in entries]
        for key, col, (owner, offset, length) in items:
            if col is None:
                del columns[key]  # cached-absent key just gained a span
                continue
            # copy-on-extend (callers may hold the old list)
            col.values = col.values \
                + shards[owner].lookup_span(key, offset, length)
            col._set = None
            col._distinct = None
            _append_coalesced(col.merged, owner, offset, length)
            col.batch_counts.append((piece.batch_no, length))
        vertex_cols = self._vertex_cols
        if not vertex_cols:
            return  # no vertex column to evict: leave the groups unbuilt
        for group in piece.vertices:
            # A new batch can only append unseen vertices, but the cached
            # column is shared with callers — rebuild lazily instead of
            # extending in place.
            if vertex_cols.pop(group, None) is not None:
                self.evictions += 1

    # -- columnar reads (charge-free; callers replay charges) --------------
    def key_column(self, key: Key) -> Optional[_KeyColumn]:
        """The window column of ``key``, or None if the key has no spans
        in the current range (the absence is cached too)."""
        col = self._columns.get(key, _MISSING)
        if col is not _MISSING:
            self.hits += 1
            return col
        self.misses += 1
        values: List[int] = []
        merged: List[OwnedSpan] = []
        batch_counts: List[Tuple[int, int]] = []
        shards = self.store.shards
        for piece in self._segments:
            span = piece.entries.get(key)
            if span is not None:
                owner, offset, length = span
                values += shards[owner].lookup_span(key, offset, length)
                _append_coalesced(merged, owner, offset, length)
                batch_counts.append((piece.batch_no, length))
        if not batch_counts:
            self._columns[key] = None
            return None
        col = _KeyColumn(values, merged, batch_counts)
        self._columns[key] = col
        return col

    def vertices(self, eid: int, d: int) -> Tuple[List[int], int]:
        """Deduped start column of ``(eid, d)`` plus the scanned member
        count — every batch's member set in the range is scanned once,
        which is what the reader's scan charge is taken from."""
        group = (eid, d)
        cached = self._vertex_cols.get(group)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        lists: List[List[int]] = []
        scanned = 0
        member_lists = self._member_lists
        for piece in self._segments:
            members = piece.vertices.get(group)
            if members is None:
                continue
            cache_key = (piece.batch_no, eid, d)
            lst = member_lists.get(cache_key)
            if lst is None:
                lst = member_lists[cache_key] = list(members)
            scanned += len(lst)
            lists.append(lst)
        # dict.fromkeys deduplicates in first-occurrence order, batch by
        # batch in each slice's own member iteration order.
        out = list(dict.fromkeys(chain.from_iterable(lists)))
        cached = (out, scanned)
        self._vertex_cols[group] = cached
        return cached

    @property
    def entries(self) -> int:
        """Cached columns (key + vertex-group), for the stats dashboard."""
        return len(self._columns) + len(self._vertex_cols)


class StreamIndexRegistry:
    """Replication control: which nodes hold which stream's index.

    The index content is shared (one logical :class:`StreamIndex` per
    stream); the registry tracks the replica set and prices accesses — a
    probe from a replica-holding node is local, anything else pays a remote
    read per probed slice.  Memory accounting multiplies the index size by
    the replica count, which is what Table 7 measures.
    """

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost if cost is not None else CostModel()
        self._indexes: Dict[str, StreamIndex] = {}
        self._replicas: Dict[str, Set[int]] = {}
        self._interest: Dict[str, Dict[int, int]] = {}

    # -- lifecycle --------------------------------------------------------
    def create_stream(self, stream: str,
                      memory: Optional[MemoryModel] = None) -> StreamIndex:
        if stream in self._indexes:
            raise StreamError(f"stream index already exists: {stream}")
        index = StreamIndex(stream, cost=self.cost, memory=memory)
        self._indexes[stream] = index
        self._replicas[stream] = set()
        self._interest[stream] = {}
        return index

    def index(self, stream: str) -> StreamIndex:
        found = self._indexes.get(stream)
        if found is None:
            raise StreamError(f"no stream index for: {stream}")
        return found

    @property
    def streams(self) -> List[str]:
        return sorted(self._indexes)

    # -- replication (query registration drives this) -------------------------
    def add_interest(self, stream: str, node_id: int) -> None:
        """A continuous query on ``node_id`` consumes ``stream``: ensure a
        replica there (created on demand, as §4.2 describes)."""
        interest = self._interest.get(stream)
        if interest is None:
            raise StreamError(f"no stream index for: {stream}")
        interest[node_id] = interest.get(node_id, 0) + 1
        self._replicas[stream].add(node_id)

    def drop_interest(self, stream: str, node_id: int) -> None:
        """A consuming query unregistered; drop the replica when unused."""
        interest = self._interest.get(stream)
        if interest is None or interest.get(node_id, 0) <= 0:
            raise StreamError(
                f"no registered interest of node {node_id} in {stream}")
        interest[node_id] -= 1
        if interest[node_id] == 0:
            del interest[node_id]
            self._replicas[stream].discard(node_id)

    def replicas(self, stream: str) -> Set[int]:
        return set(self._replicas.get(stream, ()))

    def is_local(self, stream: str, node_id: int) -> bool:
        return node_id in self._replicas.get(stream, ())

    # -- memory accounting -------------------------------------------------
    def memory_bytes(self, stream: str) -> int:
        """Total bytes across replicas of one stream's index."""
        replicas = max(1, len(self._replicas.get(stream, ())))
        return self.index(stream).memory_bytes() * replicas
