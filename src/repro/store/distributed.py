"""The distributed Wukong store: one shard per simulated node.

Placement follows Wukong's hash partitioning: the key ``[vid|eid|d]`` lives
on ``owner_of(vid)``.  Each triple ``(s, p, o)`` therefore produces an
out-edge entry on the owner of ``s``, an in-edge entry on the owner of
``o``, and index-vertex registrations on those same nodes (index vertices
are split across machines, each node indexing its local vertices).

Remote access pricing mirrors the paper: a normal remote key/value access
costs **two** one-sided RDMA reads (one to locate the key, one to fetch the
value); the stream index removes the first of these (§5, "Leveraging
RDMA").  Without RDMA, the same accesses become TCP round trips.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from repro.rdf.ids import (
    _EID_SHIFT,
    _VID_SHIFT,
    DIR_IN,
    DIR_OUT,
    Key,
)
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.kvstore import ADJACENCY_CACHE_CAPACITY, BASE_SN, \
    ShardStore

#: Approximate wire size of one key descriptor (for remote key lookups).
_KEY_BYTES = 32


class StoreAccess(Protocol):
    """What the graph explorer reads from a data source: two reads, on
    ids the explorer has already resolved.

    Implementations: :class:`PersistentAccess` (here) for stored data,
    ``repro.core.access.WindowAccess`` for a stream window (timeless
    predicates through its columnar view of the stream index, timing
    ones from the transient store), and the Wukong/Ext baseline's
    timestamp-filtering window access.  A persistent access also reads
    version chains (``neighbors_versions_batch``) for quintuple steps.
    """

    def neighbors_many(self, vids: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        """Neighbour vids through ``eid`` edges in direction ``d`` of
        every distinct vid, one fetch each, keyed in first-occurrence
        order."""
        ...

    def index_vertices(self, eid: int, d: int, meter: LatencyMeter,
                       owner: Optional[int] = None) -> List[int]:
        """Vertices having a ``d``-direction ``eid`` edge (index-vertex
        read); with ``owner``, only those that node owns (a fork-join /
        migrate branch's start set)."""
        ...


class DistributedStore:
    """All shards of the persistent store plus placement logic."""

    def __init__(self, cluster: Cluster, strings: StringServer,
                 adjacency_capacity: int = ADJACENCY_CACHE_CAPACITY):
        self.cluster = cluster
        self.strings = strings
        self.adjacency_capacity = adjacency_capacity
        self.shards: List[ShardStore] = [
            ShardStore(cluster.cost, adjacency_capacity=adjacency_capacity)
            for _ in range(cluster.num_nodes)
        ]

    # -- loading / recovery ------------------------------------------------
    def insert_columns(self, columns: EncodedColumns, sn: int = BASE_SN,
                       meter: Optional[LatencyMeter] = None,
                       node: Optional[int] = None) -> int:
        """Write encoded triples under snapshot ``sn``: each row's
        out-edge entry goes to the subject's owner and its in-edge entry
        to the object's owner, as one arrival-ordered column per shard
        (:meth:`ShardStore.append_column`; the out entries, then the in
        entries).  ``node`` restricts the write to the halves that node
        owns (rebuilding one lost shard).  Returns the entries written.

        Each shard's column is all-or-nothing (an out-of-order ``sn`` is
        refused before that shard is touched), but the call as a whole is
        not: shards earlier in node order keep their columns when a later
        shard refuses.
        """
        parts: List[Tuple[List[Key], List[int]]] = [
            ([], []) for _ in self.shards]
        subjects, predicates, objects = columns.s, columns.p, columns.o
        for vertex, other, d in ((subjects, objects, DIR_OUT),
                                 (objects, subjects, DIR_IN)):
            for owner, rows in self.cluster.owner_groups(vertex).items():
                if node is None or owner == node:
                    keys, vids = parts[owner]
                    keys += [(vertex[i] << _VID_SHIFT)
                             | (predicates[i] << _EID_SHIFT) | d
                             for i in rows]
                    vids += [other[i] for i in rows]
        for shard, (keys, vids) in zip(self.shards, parts):
            shard.append_column(keys, vids, sn=sn, meter=meter)
        return sum(len(keys) for keys, _ in parts)

    def compact(self, bound_sn: int) -> None:
        """Bounded scalarization: raise every shard's frontier to
        ``bound_sn`` (O(unsettled keys) per shard; see
        :meth:`ShardStore.compact`)."""
        for shard in self.shards:
            shard.compact(bound_sn)

    # -- placement-aware reads --------------------------------------------
    def neighbors_many(self, home_node: int, vids: Iterable[int], eid: int,
                       d: int, meter: LatencyMeter,
                       max_sn: Optional[int] = None,
                       category: str = "store") -> Dict[int, List[int]]:
        """Neighbour lookup as seen from ``home_node``: the visible list
        of every *distinct* vid, keyed in first-occurrence order — the
        one neighbour read of the persistent store.

        The distinct vids are partitioned by owner once and each owner
        group is read by one :meth:`ShardStore.lookup_many`, through the
        owner's adjacency-segment cache (a wall-clock optimization only:
        a hit charges exactly what a miss does).  Each key pays one hash
        probe plus a scan of its visible prefix; a key held off
        ``home_node`` also pays two remote reads, one for the key and one
        for its whole value, per the paper's RDMA cost analysis.  Prices
        are exact integers, so these are issued as one aggregated charge
        each: probes, scans, and every remote key's pair of reads.

        ``Cluster.owner_of`` (modulo partitioning) and ``make_key`` are
        inlined here: this is the innermost store probe of every
        execution, and ``vid``/``eid`` come from the store or the string
        server, already range-checked on insert.
        """
        fetched: Dict[int, List[int]] = dict.fromkeys(vids)
        if not fetched:
            return fetched
        num_nodes = len(self.cluster.nodes)
        if num_nodes == 1:
            groups: Dict[int, List[int]] = {0: list(fetched)}
        else:
            groups = {}
            for vid in fetched:
                group = groups.get(vid % num_nodes)
                if group is None:
                    groups[vid % num_nodes] = [vid]
                else:
                    group.append(vid)
        low_bits = (eid << _EID_SHIFT) | d
        scanned = 0
        remote_keys = 0
        remote_bytes = 0
        for owner, group in groups.items():
            lists, group_scanned, nbytes = self.shards[owner].lookup_many(
                [(vid << _VID_SHIFT) | low_bits for vid in group], max_sn)
            fetched.update(zip(group, lists))
            scanned += group_scanned
            if owner != home_node:
                remote_keys += len(group)
                remote_bytes += nbytes
        if remote_keys:
            self.cluster.fabric.remote_reads(
                meter, 2 * remote_keys,
                _KEY_BYTES * remote_keys + remote_bytes, category="network")
        cost = self.cluster.cost
        meter.charge(cost.hash_probe_ns, times=len(fetched),
                     category=category)
        meter.charge(cost.scan_entry_ns, times=scanned, category=category)
        return fetched

    def neighbors_versions_batch(self, home_node: int, vids: Iterable[int],
                                 eid: int, d: int, meter: LatencyMeter,
                                 max_sn: Optional[int] = None,
                                 category: str = "store"
                                 ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Version-carrying neighbour lookup as seen from ``home_node``:
        one probe per *distinct* vid, keyed in first-occurrence order.

        The SPARQL-T quintuple read, the ``(vids, sns)`` counterpart of
        :meth:`neighbors_many`, with the same pricing as aggregated
        charges (one hash probe and a scan of the visible prefix per key,
        two remote reads per remote key).  The SN column lives in the
        same value list, so no extra read is charged.  Bypasses the
        adjacency-segment cache, which stores value prefixes only.
        """
        fetched: Dict[int, Tuple[List[int], List[int]]] = {}
        num_nodes = len(self.cluster.nodes)
        shards = self.shards
        low_bits = (eid << _EID_SHIFT) | d
        scanned = 0
        remote_keys = 0
        remote_bytes = 0
        for vid in vids:
            if vid in fetched:
                continue
            owner = vid % num_nodes
            key = (vid << _VID_SHIFT) | low_bits
            shard = shards[owner]
            if owner != home_node:
                remote_keys += 1
                remote_bytes += shard.value_bytes(key)
            found = fetched[vid] = shard.lookup_versions(key, max_sn=max_sn)
            scanned += len(found[0])
        if remote_keys:
            self.cluster.fabric.remote_reads(
                meter, 2 * remote_keys,
                _KEY_BYTES * remote_keys + remote_bytes, category="network")
        if fetched:
            cost = self.cluster.cost
            meter.charge(cost.hash_probe_ns, times=len(fetched),
                         category=category)
            meter.charge(cost.scan_entry_ns, times=scanned,
                         category=category)
        return fetched

    def local_index(self, node_id: int, eid: int, d: int,
                    meter: LatencyMeter) -> List[int]:
        """One node's local portion of an index vertex: one hash probe
        plus a scan of its vertices."""
        vertices = self.shards[node_id].index_vertices(eid, d)
        cost = self.cluster.cost
        meter.charge(cost.hash_probe_ns, category="store")
        meter.charge(cost.scan_entry_ns, times=len(vertices),
                     category="store")
        return vertices

    def gather_index(self, home_node: int, eid: int, d: int,
                     meter: LatencyMeter) -> List[int]:
        """The full index vertex, gathering remote portions over the
        fabric: one hash probe per shard, a scan of every vertex, and
        one remote read per non-empty remote portion."""
        cost = self.cluster.cost
        meter.charge(cost.hash_probe_ns, times=len(self.shards),
                     category="store")
        vertices: List[int] = []
        for node_id, shard in enumerate(self.shards):
            part = shard.index_vertices(eid, d)
            if node_id != home_node and part:
                self.cluster.fabric.remote_read(
                    meter, 16 + 8 * len(part), category="network")
            vertices.extend(part)
        meter.charge(cost.scan_entry_ns, times=len(vertices),
                     category="store")
        return vertices

    # -- stats ---------------------------------------------------------------
    def predicate_cardinality(self, eid: int, d: int) -> Tuple[int, int]:
        """Cluster-wide ``(entries, distinct keys)`` for ``(eid, d)``.

        Vertices are owned by exactly one shard, so per-shard distinct
        counts sum to the cluster-wide distinct count.  Maintained at
        load/injection time; reading it charges nothing (planner input,
        not a modelled store access).
        """
        entries = 0
        keys = 0
        for shard in self.shards:
            entries += shard.predicate_entries(eid, d)
            keys += shard.predicate_keys(eid, d)
        return entries, keys

    def degree(self, eid: int, d: int, vid: int) -> Optional[int]:
        """``vid``'s exact ``(eid, d)`` degree, or None when it has no
        such edge.  A vertex's adjacency key lives on exactly one shard,
        its owner.  Charge-free planner input, like
        :meth:`predicate_cardinality`."""
        return self.shards[self.cluster.owner_of(vid)].degree(eid, d, vid)

    @property
    def num_entries(self) -> int:
        return sum(shard.num_entries for shard in self.shards)

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self.shards)


class PersistentAccess:
    """`StoreAccess` over the persistent store, as seen from one node.

    ``max_sn`` bounds visibility for snapshot-isolated one-shot queries;
    None reads everything (used while loading and by trusted internals).
    Fork-join branches partition the start vertices through
    :meth:`index_vertices`'s ``owner``.
    """

    def __init__(self, store: DistributedStore, home_node: int = 0,
                 max_sn: Optional[int] = None):
        self.store = store
        self.home_node = home_node
        self.max_sn = max_sn

    def neighbors_many(self, vids: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        """Deduplicated bulk neighbour fetch (batch-kernel fast path)."""
        return self.store.neighbors_many(self.home_node, vids, eid, d,
                                         meter, max_sn=self.max_sn)

    def neighbors_versions_batch(self, vids: Iterable[int], eid: int, d: int,
                                 meter: LatencyMeter
                                 ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Deduplicated bulk ``(vids, sns)`` fetch (quintuple steps)."""
        return self.store.neighbors_versions_batch(
            self.home_node, vids, eid, d, meter, max_sn=self.max_sn)

    def index_vertices(self, eid: int, d: int, meter: LatencyMeter,
                       owner: Optional[int] = None) -> List[int]:
        """The whole index vertex gathered at the home node, or
        ``owner``'s local portion (a fork-join/migrate branch's start
        set)."""
        if owner is None:
            return self.store.gather_index(self.home_node, eid, d, meter)
        return self.store.local_index(owner, eid, d, meter)
