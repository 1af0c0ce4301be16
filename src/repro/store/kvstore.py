"""One shard of the snapshot-versioned key/value graph store.

Layout follows Wukong (Fig. 6): the key combines vertex ID, predicate ID
and direction (``[vid|eid|d]``); the value is the list of neighbouring
vertex IDs.  Wukong+S extends the value lists with *snapshot numbers*
(§4.3): every entry carries the SN of the stream batch that inserted it
(the initially loaded data carries SN 0), entries are appended in
non-decreasing SN order, and a reader at stable SN ``n`` sees exactly the
prefix of entries with SN <= ``n`` — snapshot isolation without locks.

Bounded scalarization is implemented by :meth:`ShardStore.compact`, which
relabels entries at or below a bound into the base snapshot so each key
retains only a bounded number of distinct SN segments (the paper keeps two:
one being read, one being inserted).  Its work list is a due-list per SN:
every key holding a non-base SN is filed once, under its oldest one, so a
cycle pops only the SNs the bound has reached.

*Value spans* — ``(key, offset, length)`` int tuples, each a window into
one key's entry list — are returned by the one write entry,
:meth:`ShardStore.append_column` (one per distinct key of the written
column), so the stream index (§4.2) can later read exactly the entries
contributed by one stream batch with :meth:`ShardStore.lookup_span`,
skipping the scan of the rest of the value.  Plain ints, not an object:
the index keeps spans for a whole window, and a tuple of ints is one
CPython's collector stops tracking (DESIGN.md §4.2).  Compaction never
reorders entries, so spans stay valid until the index slice that holds
them is garbage-collected.

Index vertices (``[0|p|d]``) are kept in a separate map, deduplicated, and
are *not* partitioned by the reserved vid 0: each shard indexes its own
local vertices, which is how Wukong distributes index vertices.

Two wall-clock-only additions serve the one-shot fast path (they never
change simulated charges):

*Predicate cardinality statistics* — a column write updates each
``(eid, d)`` bucket it touches once: the bucket's entry counter, its
index-vertex members, and its top-k degree sketch, fed the bucket's vids
as one arrival-ordered run; together with the
index-vertex member counts this yields the per-predicate entry/key
cardinalities and hot-vertex degrees the cost-aware planner uses to order
triple patterns by estimated selectivity.

*Adjacency-segment cache* — a bounded map from store key to its most
recently computed ``(max_sn, visible-prefix, total-length)`` so repeated
probes of hot ``(vertex, predicate)`` keys skip the hash lookup, bisect
and slice.  Readers still charge exactly the probe/scan (and remote-read)
costs of an uncached lookup; a write to a key invalidates its cached
segment, and cached segments survive compaction (relabelling moves SNs,
never values, and a hit at another bound is validated against the live
SN list) except one whose own bound compaction lengthens, which it drops.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError
from repro.rdf.ids import _VID_SHIFT, Key
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel

#: Initially loaded (bulk) data carries the base snapshot number.
BASE_SN = 0

#: The low bits of a packed key that identify ``(eid, d)`` — the
#: per-predicate statistics bucket of an adjacency key; the bits above
#: them are the key's vid.
_PRED_BITS = _VID_SHIFT
_PRED_MASK = (1 << _PRED_BITS) - 1

#: Capacity of each per-(predicate, direction) top-k degree sketch.
TOPK_CAPACITY = 8

#: Default upper bound on cached adjacency segments per shard.
ADJACENCY_CACHE_CAPACITY = 1 << 16


class _ValueList:
    """The versioned neighbour list of one key.

    ``vids`` and ``sns`` are parallel arrays; ``sns`` is non-decreasing.
    """

    __slots__ = ("vids", "sns")

    def __init__(self, vids: List[int], sns: List[int]) -> None:
        self.vids = vids
        self.sns = sns

    def visible(self, max_sn: Optional[int]) -> List[int]:
        """Entries visible at snapshot ``max_sn`` (None = everything)."""
        if max_sn is None:
            return self.vids
        cut = bisect_right(self.sns, max_sn)
        return self.vids[:cut]

    def distinct_sns(self) -> int:
        """Number of distinct snapshot segments (memory-accounting input)."""
        count = 0
        previous = None
        for sn in self.sns:
            if sn != previous:
                count += 1
                previous = sn
        return count


class _TopKSketch:
    """Space-saving heavy-hitter sketch of per-vertex degrees.

    Tracks (approximately) the ``capacity`` highest-degree vertices of one
    ``(predicate, direction)`` bucket: a tracked vertex's count is exact
    once it stays resident; an entering vertex inherits the evicted
    minimum plus one (the standard space-saving overestimate).  Fully
    deterministic — ties pick the first-inserted key, and insertion order
    is the deterministic store insertion order — so statistics-driven
    plan ordering stays reproducible.  Wall-clock-only planner input;
    maintaining it charges nothing.
    """

    __slots__ = ("capacity", "counts", "_floor", "_cohort", "_cohort_pos")

    def __init__(self, capacity: int = TOPK_CAPACITY):
        self.capacity = capacity
        self.counts: Dict[int, int] = {}
        #: Lazily maintained eviction cohort: the keys whose count equals
        #: ``_floor``, in dict (= first-insertion) order, captured at the
        #: last rescan.  Counts only ever grow and entrants start at
        #: ``_floor + 1``, so until the cohort is exhausted the dict-order
        #: first key still holding ``_floor`` is exactly
        #: ``min(counts, key=counts.__getitem__)``; bumped members are
        #: skipped on pop.  Rescans amortize across the whole cohort,
        #: replacing the O(capacity) ``min`` per eviction.
        self._floor = 0
        self._cohort: List[int] = []
        self._cohort_pos = 0

    def bump_many(self, vids: Sequence[int]) -> None:
        """Count each of ``vids``, in order — one call per arrival-ordered
        run; the cohort state lives in locals for the whole run."""
        counts = self.counts
        counts_get = counts.get
        capacity = self.capacity
        cohort = self._cohort
        pos = self._cohort_pos
        floor = self._floor
        for vid in vids:
            count = counts_get(vid)
            if count is not None:
                counts[vid] = count + 1
                continue
            if len(counts) < capacity:
                counts[vid] = 1
                continue
            while True:
                if pos >= len(cohort):
                    floor = min(counts.values())
                    cohort = [key for key, held in counts.items()
                              if held == floor]
                    pos = 0
                victim = cohort[pos]
                pos += 1
                if counts_get(victim) == floor:
                    break
            del counts[victim]
            counts[vid] = floor + 1
        self._cohort = cohort
        self._cohort_pos = pos
        self._floor = floor

    def estimate(self, vid: int) -> Optional[int]:
        """The tracked degree of ``vid``, or None when it is not a
        current heavy hitter."""
        return self.counts.get(vid)


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
        self._values: Dict[Key, _ValueList] = {}
        self._index: Dict[Tuple[int, int], List[int]] = {}
        self._index_members: Dict[Tuple[int, int], Set[int]] = {}
        #: The compaction due-list: SN -> the keys whose *oldest* non-base
        #: SN it is.  Every key holding a non-base SN (SNs are
        #: non-decreasing, so exactly the keys with ``sns[-1] !=
        #: BASE_SN``) is filed exactly once; compaction — a charge-free
        #: bookkeeping pass — pops only the SNs that are due.
        self._due: Dict[int, List[Key]] = {}
        #: The highest SN ever written here — an upper bound on every
        #: key's last SN, so a column at or above it cannot be refused.
        self._high_sn = BASE_SN
        #: Entries inserted per ``(eid, d)`` bucket (packed low key bits),
        #: maintained at load/injection time for the cost-aware planner.
        self._pred_entries: Dict[int, int] = {}
        #: Per-bucket top-k degree sketches (hot-constant planner input).
        self._degree_sketches: Dict[int, _TopKSketch] = {}
        #: key -> (max_sn, visible prefix, total value length); bounded.
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
        and its vertex is registered with the ``(eid, d)`` index vertex
        (a set: re-registrations are ignored).  Returns one
        ``(key, offset, length)`` span per distinct key, in
        first-occurrence order, covering exactly the entries this call
        appended to it.

        Charges ``create_key_ns`` per fresh key plus ``insert_entry_ns``
        per value entry and per new index entry, as two aggregated
        calls.  The planner statistics (charge-free) are kept here too,
        once per ``(eid, d)`` bucket: its entry count, its index-vertex
        members, and its degree sketch, fed the bucket's vids in arrival
        order — a sketch's eviction ties are order-sensitive, and each
        sketch sees only its own bucket's sequence.

        A key that becomes versioned here (it is created, or its list
        ended in :data:`BASE_SN`) is filed in the due-list under ``sn``.

        Raises :class:`StoreError`, before anything is written, when
        ``sn`` is below the last SN of any key in the column.
        """
        if sn >= self._high_sn:
            self._high_sn = sn
        else:
            values_get = self._values.get
            for key in keys:
                values = values_get(key)
                if values is not None and sn < values.sns[-1]:
                    raise StoreError(
                        f"snapshot numbers must be appended in order: "
                        f"{sn} after {values.sns[-1]}")
        groups: Dict[Key, List[int]] = {}
        groups_get = groups.get
        for key, vid in zip(keys, vids):
            group = groups_get(key)
            if group is None:
                groups[key] = [vid]
            else:
                group.append(vid)
        values_dict = self._values
        values_get = values_dict.get
        due = self._due.get(sn, []) if sn != BASE_SN else None
        adjacency = self._adjacency
        adjacency_pop = adjacency.pop if adjacency else None
        spans: List[Tuple[Key, int, int]] = []
        append_span = spans.append
        created_keys = 0
        for key, group in groups.items():
            count = len(group)
            values = values_get(key)
            if values is None:
                # A fresh key keeps its group as its value list (no
                # second copy of a bulk load's lists).
                values_dict[key] = _ValueList(group, [sn] * count)
                created_keys += 1
                offset = 0
                if due is not None:
                    due.append(key)
            else:
                sns = values.sns
                offset = len(sns)
                if due is not None and sns[-1] == BASE_SN:
                    due.append(key)
                if count == 1:
                    # Most keys receive a single value per batch: append
                    # beats building the one-element [sn] list.
                    values.vids.append(group[0])
                    sns.append(sn)
                else:
                    values.vids += group
                    sns += [sn] * count
            if adjacency_pop is not None:
                adjacency_pop(key, None)
            append_span((key, offset, count))
        if due:
            self._due[sn] = due
        index_entries = self._update_statistics(keys, groups)
        if meter is not None and keys:
            if created_keys:
                meter.charge(self.cost.create_key_ns, times=created_keys,
                             category="insert")
            meter.charge(self.cost.insert_entry_ns,
                         times=len(keys) + index_entries,
                         category="insert")
        return spans

    def _update_statistics(self, keys: List[Key],
                           groups: Dict[Key, List[int]]) -> int:
        """The planner statistics of one column write, per ``(eid, d)``
        bucket: entry count, degree sketch (fed the bucket's vids in
        arrival order) and index-vertex members (new vids in
        first-occurrence order).  Returns the new index entries."""
        if len({key & _PRED_MASK for key in groups}) == 1:
            runs = {keys[0] & _PRED_MASK: [key >> _PRED_BITS for key in keys]}
        else:
            runs = {}
            runs_get = runs.get
            for key in keys:
                bucket = key & _PRED_MASK
                run = runs_get(bucket)
                if run is None:
                    runs[bucket] = [key >> _PRED_BITS]
                else:
                    run.append(key >> _PRED_BITS)
        pred_entries = self._pred_entries
        sketches = self._degree_sketches
        index_members = self._index_members
        index_entries = 0
        for bucket, run in runs.items():
            pred_entries[bucket] = pred_entries.get(bucket, 0) + len(run)
            sketch = sketches.get(bucket)
            if sketch is None:
                sketch = sketches[bucket] = _TopKSketch()
            sketch.bump_many(run)
            # The bucket is the index vertex's (eid, d), still packed.
            slot = (bucket >> 1, bucket & 1)
            members = index_members.get(slot)
            if members is None:
                members = index_members[slot] = set()
                self._index[slot] = []
            fresh = [vid for vid in dict.fromkeys(run) if vid not in members]
            if fresh:
                members.update(fresh)
                self._index[slot] += fresh
                index_entries += len(fresh)
        return index_entries

    def compact(self, bound_sn: int) -> int:
        """Bounded scalarization: fold SNs <= ``bound_sn`` into the base.

        Returns how many keys were touched.  Only keys holding non-base
        SNs can change (all-base lists are fixpoints), and among those
        only keys whose *oldest* non-base SN is already due — everything
        else would bisect to an all-base (or empty) prefix and no-op, so
        only the due-list's SNs at or below the bound are popped, in
        order; a key whose list continues above the bound is re-filed
        under its next SN ``sns[cut]``.  A key's distinct-segment
        count changes exactly when the relabelled prefix held more than
        one distinct SN — with non-decreasing SNs that is an O(1)
        first-vs-last check, preserving the original return value.

        Within a due key only the not-yet-base suffix ``[lo, cut)`` of
        the due prefix is rewritten (the entries before ``lo`` already
        hold :data:`BASE_SN`), so a cycle costs the entries it relabels
        plus two bisects per due key, not the key's whole history.
        """
        # Cached adjacency segments survive compaction: relabelling never
        # moves values and only lowers SNs, and ``lookup_many`` validates
        # a hit at another bound against the live SN list (see its
        # docstring).  The one segment relabelling can outdate is one
        # cached at a bound below ``bound_sn`` whose prefix ends inside
        # the relabelled ``[0, cut)``: its own bound now bisects to
        # ``cut``, and a same-bound hit is not validated — so it is
        # dropped here.
        touched = 0
        due = self._due
        values = self._values
        adjacency = self._adjacency
        for due_sn in sorted(sn for sn in due if sn <= bound_sn):
            for key in due.pop(due_sn):
                sns = values[key].sns
                # ``due_sn`` is still present in ``sns`` (relabelling only
                # happens here), so the bisected prefix is never empty.
                # Most due keys are due whole: skip that bisect.
                cut = len(sns) if sns[-1] <= bound_sn \
                    else bisect_right(sns, bound_sn)
                cached = adjacency.get(key)
                if cached is not None and len(cached[1]) < cut:
                    del adjacency[key]
                if sns[0] != sns[cut - 1]:
                    touched += 1
                lo = bisect_right(sns, BASE_SN, 0, cut)
                if lo < cut:
                    sns[lo:cut] = [BASE_SN] * (cut - lo)
                if cut < len(sns):
                    # Re-filed above the bound: not revisited this cycle.
                    later = due.get(sns[cut])
                    if later is None:
                        due[sns[cut]] = [key]
                    else:
                        later.append(key)
        return touched

    # -- predicate cardinality statistics --------------------------------
    def predicate_entries(self, eid: int, d: int) -> int:
        """Total adjacency entries inserted under ``(eid, d)`` keys."""
        return self._pred_entries.get((eid << 1) | d, 0)

    def predicate_keys(self, eid: int, d: int) -> int:
        """Distinct local vertices holding a ``d``-direction ``eid`` edge."""
        members = self._index_members.get((eid, d))
        return len(members) if members is not None else 0

    def topk_degree(self, eid: int, d: int, vid: int) -> Optional[int]:
        """``vid``'s tracked degree under ``(eid, d)``, or None when it is
        not one of the bucket's current heavy hitters."""
        sketch = self._degree_sketches.get((eid << 1) | d)
        return None if sketch is None else sketch.estimate(vid)

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

        A cached ``(bound, visible, total)`` entry serves *any* bound
        that bisects to the same visible prefix: inserts invalidate the
        key, so while an entry exists the key's value list is unchanged
        since caching and ``visible == vids[:len(visible)]`` — the entry
        is correct at ``max_sn`` exactly when ``max_sn``'s cut equals
        ``len(visible)``.  A *full* entry (``len(visible) == total``)
        skips that bisect for every bound at or above its own, and for
        None: every entry had an SN at most the recorded bound, and
        compaction only ever lowers SNs, so the cut is still the whole
        list.  Both rules read the live SN list or rely only on SNs
        falling, so compaction can outdate only a hit at the entry's own
        bound — :meth:`compact` drops exactly those entries.  A miss
        re-records the key (bounded FIFO: the victim is the front of the
        insertion-ordered dict, the oldest insert).
        """
        cache = self._adjacency
        cache_get = cache.get
        values_get = self._values.get
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
                    values = values_get(key)
                    if values is not None:
                        cut = len(values.sns) if max_sn is None \
                            else bisect_right(values.sns, max_sn)
                        if cut != len(visible):
                            entry = None
                if entry is not None:
                    hits += 1
                    append(visible)
                    scanned += len(visible)
                    total_length += total
                    continue
                del cache[key]
            values = values_get(key)
            if values is None:
                visible = []
                total = 0
            else:
                visible = values.visible(max_sn)
                total = len(values.vids)
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

    def lookup(self, key: Key, max_sn: Optional[int] = None,
               meter: Optional[LatencyMeter] = None,
               category: str = "store") -> List[int]:
        """All vids of ``key`` visible at ``max_sn``.

        Charges one hash probe plus a scan proportional to the visible
        prefix length.
        """
        values = self._values.get(key)
        if meter is not None:
            meter.charge(self.cost.hash_probe_ns, category=category)
        if values is None:
            return []
        visible = values.visible(max_sn)
        if meter is not None:
            meter.charge(self.cost.scan_entry_ns, times=len(visible),
                         category=category)
        return visible

    def lookup_versions(self, key: Key, max_sn: Optional[int] = None,
                        meter: Optional[LatencyMeter] = None,
                        category: str = "store"
                        ) -> Tuple[List[int], List[int]]:
        """The ``(vids, sns)`` prefix of ``key`` visible at ``max_sn``.

        The SPARQL-T quintuple read: like :meth:`lookup` but also returns
        each visible entry's insertion snapshot, so the temporal evaluator
        can bind valid-time intervals.  Charges exactly what :meth:`lookup`
        charges — one hash probe plus a scan of the visible prefix; the SN
        column rides along with the value scan, it is not a second read.
        Note compaction relabels SNs at or below the GC frontier to
        :data:`BASE_SN`, so insertion snapshots below the frontier are
        coarsened to the base (reads *above* the frontier are exact).
        """
        values = self._values.get(key)
        if meter is not None:
            meter.charge(self.cost.hash_probe_ns, category=category)
        if values is None:
            return [], []
        if max_sn is None:
            cut = len(values.vids)
        else:
            cut = bisect_right(values.sns, max_sn)
        if meter is not None:
            meter.charge(self.cost.scan_entry_ns, times=cut,
                         category=category)
        return values.vids[:cut], values.sns[:cut]

    def lookup_span(self, key: Key, offset: int, length: int,
                    meter: Optional[LatencyMeter] = None,
                    category: str = "store") -> List[int]:
        """Read exactly ``[offset, offset + length)`` of ``key``'s value
        list (stream-index path).

        No hash probe is charged: the span's fat pointer addresses the
        value directly (the paper's one-RDMA-read fast path).
        """
        values = self._values.get(key)
        if values is None:
            raise StoreError(f"span refers to unknown key: {key}")
        end = offset + length
        if end > len(values.vids):
            raise StoreError(
                f"span out of bounds: ({key}, {offset}, {length}) "
                f"(list length {len(values.vids)})")
        if meter is not None:
            meter.charge(self.cost.scan_entry_ns, times=length,
                         category=category)
        return values.vids[offset:end]

    def index_vertices(self, eid: int, d: int,
                       meter: Optional[LatencyMeter] = None,
                       category: str = "store") -> List[int]:
        """The local vertices registered under index ``[0|eid|d]``."""
        vertices = self._index.get((eid, d), [])
        if meter is not None:
            meter.charge(self.cost.hash_probe_ns, category=category)
            meter.charge(self.cost.scan_entry_ns, times=len(vertices),
                         category=category)
        return vertices

    # -- introspection ------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self._values)

    @property
    def num_entries(self) -> int:
        return sum(len(v.vids) for v in self._values.values())

    def value_bytes(self, key: Key) -> int:
        """Approximate wire size of one key's value (for network pricing)."""
        values = self._values.get(key)
        length = len(values.vids) if values is not None else 0
        return 16 + 8 * length

    def iter_keys(self) -> Iterator[Key]:
        return iter(self._values.keys())

    def memory_bytes(self, memory: Optional[MemoryModel] = None) -> int:
        """Modelled resident bytes of this shard (Table 7 / §6.7 accounting)."""
        model = memory if memory is not None else MemoryModel()
        total = 0
        for values in self._values.values():
            total += model.key_bytes
            total += model.entry_bytes * len(values.vids)
            total += model.sn_segment_bytes * values.distinct_sns()
        for vertices in self._index.values():
            total += model.key_bytes + model.entry_bytes * len(vertices)
        return total
