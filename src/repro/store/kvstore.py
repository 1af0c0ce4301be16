"""One shard of the snapshot-versioned key/value graph store.

Layout follows Wukong (Fig. 6): the key combines vertex ID, predicate ID
and direction (``[vid|eid|d]``); the value is the list of neighbouring
vertex IDs.  Wukong+S extends the value lists with *snapshot numbers*
(§4.3): every entry carries the SN of the stream batch that inserted it
(the initially loaded data carries SN 0), entries are appended in
non-decreasing SN order, and a reader at stable SN ``n`` sees exactly the
prefix of entries with SN <= ``n`` — snapshot isolation without locks.
A key's value is a plain vid list in ``_vids`` and, only while some of
its entries are above the frontier (below), the SNs of exactly those
entries in ``_sns``: a non-decreasing suffix parallel to the vid list's
tail.  The first ``len(vids) - len(sns)`` entries read as
:data:`BASE_SN`; a *settled* key, absent from ``_sns``, is all base and
is one collector-tracked object.

The shard prices its writes (:meth:`ShardStore.append_column`) but no
read: :meth:`~ShardStore.lookup_many`, :meth:`~ShardStore.lookup_versions`,
:meth:`~ShardStore.lookup_span` and :meth:`~ShardStore.index_vertices`
are charge-free and return what their callers (``DistributedStore``,
``ColumnarSlice``) need to price them.

Bounded scalarization is a per-shard *frontier*: :meth:`ShardStore.compact`
raises it and trims the SNs at or below it off every suffix, dropping a
suffix it empties, so each key shows a bounded number of distinct SN
segments (the paper keeps two: one being read, one being inserted).  It
walks only ``_sns``: O(unsettled keys), with no bookkeeping on the write
path.  Every reader cuts a key at ``base + bisect_right(suffix,
max_sn)``, and the segment count and memory accounting count the base
as one segment.  A base column writes no SN, so a bulk load creates no
SN list.  A stream batch's SN is above ``Stable_SN >= frontier``, so no
engine path writes between the base and the frontier; such a write is
refused.

*Value spans* — ``(key, offset, length)`` int tuples, each a window into
one key's entry list — are returned by the one write entry,
:meth:`ShardStore.append_column` (one per distinct key of the written
column), so the stream index (§4.2) can later read exactly the entries
contributed by one stream batch with :meth:`ShardStore.lookup_span`,
skipping the scan of the rest of the value.  Plain ints, not an object:
the index keeps spans for a whole window, and a tuple of ints is one
CPython's collector stops tracking (DESIGN.md §4.2).  Entries are never
reordered, so spans stay valid until the index slice that holds them is
garbage-collected.

Index vertices (``[0|p|d]``) are kept in a separate map, deduplicated, and
are *not* partitioned by the reserved vid 0: each shard indexes its own
local vertices, which is how Wukong distributes index vertices.

Two wall-clock-only additions serve the one-shot fast path (they never
change simulated charges):

*Predicate cardinality statistics* — a column write bumps the entry
counter of each key's ``(eid, d)`` bucket, which with the index
vertex's length (a vid joins ``[0|eid|d]`` exactly when its key
``[vid|eid|d]`` is created) yields the per-predicate entry/key
cardinalities the cost-aware planner orders triple patterns by.  A
constant's own degree is read exactly off its value list
(:meth:`ShardStore.degree`), so nothing on the write path tracks hot
vertices or keeps a second membership set.

*Adjacency-segment cache* — a bounded map from store key to its most
recently computed ``(bound, visible-prefix, total-length)`` so repeated
probes of hot ``(vertex, predicate)`` keys skip the hash lookup, bisect
and slice.  Callers still charge exactly the probe/scan (and remote-read)
costs of an uncached lookup.  A write to a key invalidates its cached
segment; compaction leaves the cut at every bound at or above the
frontier unchanged and a read's bound is raised to the frontier, so
nothing else can outdate one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StoreError
from repro.rdf.ids import _VID_SHIFT, Key, make_key
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel

#: Initially loaded (bulk) data carries the base snapshot number.
BASE_SN = 0

#: The low bits of a packed key that identify ``(eid, d)`` — the
#: per-predicate statistics bucket of an adjacency key; the bits above
#: them are the key's vid.
_PRED_BITS = _VID_SHIFT
_PRED_MASK = (1 << _PRED_BITS) - 1

#: Default upper bound on cached adjacency segments per shard.
ADJACENCY_CACHE_CAPACITY = 1 << 16


class ShardStore:
    """The store partition held by one simulated node."""

    def __init__(self, cost: Optional[CostModel] = None,
                 adjacency_capacity: int = ADJACENCY_CACHE_CAPACITY):
        self.cost = cost if cost is not None else CostModel()
        self.adjacency_capacity = adjacency_capacity
        #: Wall-clock-only cache effectiveness counters (never charged).
        self.adjacency_hits = 0
        self.adjacency_misses = 0
        self.adjacency_evictions = 0
        #: key -> its value list, and key -> the SNs of its entries above
        #: the frontier (the list's tail; non-decreasing; absent when
        #: every entry reads as the base).  Plain lists: no wrapper
        #: object for the collector.
        self._vids: Dict[Key, List[int]] = {}
        self._sns: Dict[Key, List[int]] = {}
        #: (eid, d) -> local vids in key-creation order: the index vertex
        #: ``[0|eid|d]``.  A vid is in it exactly when its key exists.
        self._index: Dict[Tuple[int, int], List[int]] = {}
        #: Bounded scalarization's frontier: every SN in ``_sns`` is
        #: above it.  Only ever raised.
        self._frontier = BASE_SN
        #: The highest SN ever written here — an upper bound on every
        #: key's last SN, so a column at or above it cannot be refused.
        self._high_sn = BASE_SN
        #: Entries inserted per ``(eid, d)`` bucket (packed low key bits),
        #: maintained at load/injection time for the cost-aware planner.
        self._pred_entries: Dict[int, int] = {}
        #: key -> (bound, visible prefix, total value length); bounded.
        self._adjacency: Dict[Key, Tuple[Optional[int], List[int], int]] = {}

    # -- writes ---------------------------------------------------------
    def append_column(self, keys: List[Key], vids: List[int],
                      sn: int = BASE_SN,
                      meter: Optional[LatencyMeter] = None
                      ) -> List[Tuple[Key, int, int]]:
        """Append ``vids[i]`` to ``keys[i]``'s value list under snapshot
        ``sn``, for a whole column given in arrival order — the one way
        entries get into a shard (bulk load, injection and recovery all
        write through here).

        Each key's entries land contiguously, in their arrival order,
        and a fresh key's vertex joins the ``(eid, d)`` index vertex.
        Returns one ``(key, offset, length)`` span per distinct key, in
        first-occurrence order, covering exactly the entries this call
        appended to it.

        Charges ``create_key_ns`` per fresh key plus ``insert_entry_ns``
        per value entry and per new index entry (one per fresh key), as
        two aggregated calls.  The planner's per-bucket entry count
        (charge-free) is kept in the same loop.

        A base column writes no SN; a stamped one extends each key's SN
        suffix.  Raises :class:`StoreError`, before anything is written,
        when ``sn`` is above the base but at or below the frontier (it
        would read as the base), or below the last SN of any key in the
        column (so a base write onto a key with a suffix is refused).
        """
        frontier = self._frontier
        if BASE_SN < sn <= frontier:
            raise StoreError(
                f"snapshot {sn} is at or below the scalarization frontier "
                f"{frontier}")
        if sn >= self._high_sn:
            self._high_sn = sn
        else:
            sns_get = self._sns.get
            for key in keys:
                key_sns = sns_get(key)
                if key_sns is not None and sn < key_sns[-1]:
                    raise StoreError(
                        f"snapshot numbers must be appended in order: "
                        f"{sn} after {key_sns[-1]}")
        groups: Dict[Key, List[int]] = {}
        groups_get = groups.get
        for key, vid in zip(keys, vids):
            group = groups_get(key)
            if group is None:
                groups[key] = [vid]
            else:
                group.append(vid)
        vids_dict = self._vids
        vids_get = vids_dict.get
        stamped = sn != BASE_SN
        sns_dict = self._sns
        sns_get = sns_dict.get
        index = self._index
        pred_entries = self._pred_entries
        entries_get = pred_entries.get
        adjacency = self._adjacency
        adjacency_pop = adjacency.pop if adjacency else None
        spans: List[Tuple[Key, int, int]] = []
        append_span = spans.append
        created_keys = 0
        for key, group in groups.items():
            count = len(group)
            bucket = key & _PRED_MASK
            pred_entries[bucket] = entries_get(bucket, 0) + count
            key_vids = vids_get(key)
            if key_vids is None:
                # A fresh key keeps its group as its value list (no
                # second copy of a bulk load's lists).
                vids_dict[key] = group
                created_keys += 1
                # The bucket is the index vertex's (eid, d), still packed.
                index.setdefault((bucket >> 1, bucket & 1), []).append(
                    key >> _PRED_BITS)
                offset = 0
            else:
                offset = len(key_vids)
                if count == 1:
                    # Most keys receive a single value per batch.
                    key_vids.append(group[0])
                else:
                    key_vids += group
            if stamped:
                key_sns = sns_get(key)
                if key_sns is None:
                    sns_dict[key] = [sn] * count
                elif count == 1:
                    key_sns.append(sn)
                else:
                    key_sns += [sn] * count
            if adjacency_pop is not None:
                adjacency_pop(key, None)
            append_span((key, offset, count))
        if meter is not None and keys:
            if created_keys:
                meter.charge(self.cost.create_key_ns, times=created_keys,
                             category="insert")
            meter.charge(self.cost.insert_entry_ns,
                         times=len(keys) + created_keys,
                         category="insert")
        return spans

    def compact(self, bound_sn: int) -> None:
        """Bounded scalarization: fold SNs <= ``bound_sn`` into the base
        by raising the frontier to it (a lower bound is a no-op) and
        trimming those SNs off the head of every suffix; a suffix left
        empty is dropped, and its key is settled.  O(unsettled keys):
        only ``_sns`` is walked, and a settled key is never touched."""
        if bound_sn <= self._frontier:
            return
        self._frontier = bound_sn
        sns_dict = self._sns
        for key in [key for key, sns in sns_dict.items()
                    if sns[-1] <= bound_sn]:
            del sns_dict[key]
        for sns in sns_dict.values():
            if sns[0] <= bound_sn:
                del sns[:bisect_right(sns, bound_sn)]

    # -- predicate cardinality statistics --------------------------------
    def predicate_entries(self, eid: int, d: int) -> int:
        """Total adjacency entries inserted under ``(eid, d)`` keys."""
        return self._pred_entries.get((eid << 1) | d, 0)

    def predicate_keys(self, eid: int, d: int) -> int:
        """Distinct local vertices holding a ``d``-direction ``eid`` edge."""
        return len(self._index.get((eid, d), ()))

    def degree(self, eid: int, d: int, vid: int) -> Optional[int]:
        """``vid``'s exact ``(eid, d)`` degree — every entry its key
        holds, at any snapshot — or None when the key is absent."""
        vids = self._vids.get(make_key(vid, eid, d))
        return None if vids is None else len(vids)

    # -- reads ------------------------------------------------------------
    def lookup_many(self, keys: List[Key], max_sn: Optional[int]
                    ) -> Tuple[List[List[int]], int, int]:
        """The visible lists of distinct ``keys`` at ``max_sn``, through
        the adjacency-segment cache — the one neighbour read of the
        persistent store.  Returns ``(lists, scanned, value_bytes)``: one
        list per key in the given order, the entries they hold, and the
        summed wire size (``16 + 8 * length`` of each whole value, as
        :meth:`value_bytes`).  Charge-free: the caller charges one hash
        probe per key, ``scanned`` entry scans and, for a remote group,
        the reads of ``value_bytes``; so a hit costs exactly a miss.

        A key is cut at ``base + bisect_right(suffix, max_sn)``.  The
        read's effective bound is ``max_sn`` raised to the frontier; the
        cache records that bound.  A cached ``(bound, visible, total)``
        entry serves *any* bound that cuts to the same visible prefix:
        inserts invalidate the key, so while an entry exists the key's
        value list is unchanged since caching and ``visible ==
        vids[:len(visible)]`` — the entry is correct at a bound exactly
        when that bound's cut equals ``len(visible)``.  A *full* entry
        (``len(visible) == total``) skips that cut for every bound at or
        above its own, and for None.  Compaction leaves the cut at every
        bound at or above the frontier unchanged, so neither rule can go
        stale.  A miss re-records the key (bounded FIFO: the victim is
        the front of the insertion-ordered dict, the oldest insert).
        """
        if max_sn is not None and max_sn < self._frontier:
            max_sn = self._frontier
        cache = self._adjacency
        cache_get = cache.get
        vids_get = self._vids.get
        sns_get = self._sns.get
        capacity = self.adjacency_capacity
        lists: List[List[int]] = []
        append = lists.append
        hits = 0
        scanned = 0
        total_length = 0
        for key in keys:
            entry = cache_get(key)
            if entry is not None:
                bound, visible, total = entry
                if bound != max_sn and not (
                        len(visible) == total and (
                            max_sn is None
                            or (bound is not None and max_sn >= bound))):
                    sns = sns_get(key)
                    cut = total if sns is None or max_sn is None \
                        else total - len(sns) + bisect_right(sns, max_sn)
                    if cut != len(visible):
                        entry = None
                if entry is not None:
                    hits += 1
                    append(visible)
                    scanned += len(visible)
                    total_length += total
                    continue
                del cache[key]
            vids = vids_get(key)
            if vids is None:
                visible = []
                total = 0
            else:
                total = len(vids)
                sns = sns_get(key)
                visible = vids if max_sn is None else vids[
                    :total if sns is None
                    else total - len(sns) + bisect_right(sns, max_sn)]
            if len(cache) >= capacity:
                del cache[next(iter(cache))]
                self.adjacency_evictions += 1
            cache[key] = (max_sn, visible, total)
            append(visible)
            scanned += len(visible)
            total_length += total
        self.adjacency_hits += hits
        self.adjacency_misses += len(keys) - hits
        return lists, scanned, 16 * len(keys) + 8 * total_length

    def lookup_versions(self, key: Key, max_sn: Optional[int] = None
                        ) -> Tuple[List[int], List[int]]:
        """The ``(vids, sns)`` prefix of ``key`` visible at ``max_sn``
        (None = everything; the base is always visible), or two empty
        lists for an absent key.

        The SPARQL-T quintuple read: each visible entry with its
        insertion snapshot, so the temporal evaluator can bind
        valid-time intervals.  SNs at or below the frontier read as
        :data:`BASE_SN`, so insertion snapshots below the GC frontier are
        coarsened to the base (reads *above* the frontier are exact).
        Charge-free: the caller charges one hash probe plus a scan of the
        visible prefix; the SN column rides along with the value scan.
        """
        vids = self._vids.get(key)
        if vids is None:
            return [], []
        sns = self._sns.get(key)
        if sns is None:
            return vids[:], [BASE_SN] * len(vids)
        base = len(vids) - len(sns)
        cut = len(sns) if max_sn is None else bisect_right(sns, max_sn)
        return vids[:base + cut], [BASE_SN] * base + sns[:cut]

    def lookup_span(self, key: Key, offset: int, length: int) -> List[int]:
        """Read exactly ``[offset, offset + length)`` of ``key``'s value
        list (stream-index path).  Charge-free: the caller charges a scan
        of ``length`` entries and no hash probe, since the span's fat
        pointer addresses the value directly (the paper's one-RDMA-read
        fast path)."""
        vids = self._vids.get(key)
        if vids is None:
            raise StoreError(f"span refers to unknown key: {key}")
        end = offset + length
        if end > len(vids):
            raise StoreError(
                f"span out of bounds: ({key}, {offset}, {length}) "
                f"(list length {len(vids)})")
        return vids[offset:end]

    def index_vertices(self, eid: int, d: int) -> List[int]:
        """The local vertices registered under index ``[0|eid|d]``.
        Charge-free: the caller charges one hash probe plus a scan of
        them."""
        return self._index.get((eid, d), [])

    # -- introspection ------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self._vids)

    @property
    def num_entries(self) -> int:
        return sum(map(len, self._vids.values()))

    def segments(self, key: Key) -> int:
        """``key``'s distinct SN segments as readers see them (the base
        is one segment); 0 for an absent key."""
        vids = self._vids.get(key)
        if vids is None:
            return 0
        sns = self._sns.get(key, ())
        return (len(vids) > len(sns)) + len(set(sns))

    def value_bytes(self, key: Key) -> int:
        """Approximate wire size of one key's value (for network pricing)."""
        vids = self._vids.get(key)
        return 16 + 8 * (len(vids) if vids is not None else 0)

    def iter_keys(self) -> Iterator[Key]:
        return iter(self._vids)

    def memory_bytes(self, memory: Optional[MemoryModel] = None) -> int:
        """Modelled resident bytes of this shard (Table 7 / §6.7 accounting)."""
        model = memory if memory is not None else MemoryModel()
        # A settled key is one base segment.
        segments = len(self._vids) - len(self._sns) \
            + sum(map(self.segments, self._sns))
        total = model.key_bytes * len(self._vids) \
            + model.entry_bytes * self.num_entries \
            + model.sn_segment_bytes * segments
        for vertices in self._index.values():
            total += model.key_bytes + model.entry_bytes * len(vertices)
        return total
