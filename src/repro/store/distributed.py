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
    make_key,
)
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedTriple, Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.kvstore import ADJACENCY_CACHE_CAPACITY, BASE_SN, \
    ShardStore

#: Approximate wire size of one key descriptor (for remote key lookups).
_KEY_BYTES = 32


class StoreAccess(Protocol):
    """What the graph explorer needs from a data source.

    Implementations exist for the persistent store (here), for stream
    windows via the stream index (``repro.core.stream_index``), and for the
    transient store (``repro.core.transient``).
    """

    def resolve_entity(self, name: str) -> Optional[int]:
        """vid for a constant term, or None if the term is unknown."""
        ...

    def resolve_predicate(self, name: str) -> Optional[int]:
        """eid for a predicate, or None if unknown."""
        ...

    def neighbors(self, vid: int, eid: int, d: int,
                  meter: LatencyMeter) -> List[int]:
        """Neighbour vids of ``vid`` through ``eid`` edges in direction ``d``."""
        ...

    def neighbors_many(self, vids: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        """:meth:`neighbors` of every distinct vid, one fetch each, keyed
        in first-occurrence order."""
        ...

    def index_vertices(self, eid: int, d: int,
                       meter: LatencyMeter) -> List[int]:
        """Vertices having a ``d``-direction ``eid`` edge (index-vertex read)."""
        ...

    def index_vertices_local(self, eid: int, d: int, node_id: int,
                             meter: LatencyMeter) -> List[int]:
        """The :meth:`index_vertices` owned by ``node_id`` (a fork-join /
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

    # -- loading / injection --------------------------------------------
    def insert_triples(self, triples: Iterable[EncodedTriple],
                       sn: int = BASE_SN,
                       meter: Optional[LatencyMeter] = None,
                       node: Optional[int] = None) -> List[Key]:
        """Write encoded triples under snapshot ``sn``: each triple's
        out-edge entry goes to the subject's owner and its in-edge entry
        to the object's owner, as one arrival-ordered column per shard
        (:meth:`ShardStore.append_column`).  ``node`` restricts the
        write to the halves that node owns (rebuilding one lost shard).

        Returns the keys written, one per entry in arrival order (a
        triple's out half before its in half).

        Each shard's column is all-or-nothing (an out-of-order ``sn`` is
        refused before that shard is touched), but the call as a whole is
        not: shards earlier in node order keep their columns when a later
        shard refuses.
        """
        written: List[Key] = []
        columns: List[Tuple[List[Key], List[int]]] = [
            ([], []) for _ in self.shards]
        owner_of = self.cluster.owner_of
        for s, p, o in triples:
            for vid, value, d in ((s, o, DIR_OUT), (o, s, DIR_IN)):
                owner = owner_of(vid)
                if node is None or owner == node:
                    key = make_key(vid, p, d)
                    keys, vids = columns[owner]
                    keys.append(key)
                    vids.append(value)
                    written.append(key)
        for shard, (keys, vids) in zip(self.shards, columns):
            shard.append_column(keys, vids, sn=sn, meter=meter)
        return written

    def load(self, triples: Iterable[Triple]) -> int:
        """Bulk-load initial (string) triples at the base snapshot."""
        encode = self.strings.encode_triple
        return len(self.insert_triples(map(encode, triples))) // 2

    def compact(self, bound_sn: int) -> None:
        """Bounded scalarization: raise every shard's frontier to
        ``bound_sn`` (O(1) per shard; see :meth:`ShardStore.compact`)."""
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
                    meter: LatencyMeter, category: str = "store") -> List[int]:
        """One node's local portion of an index vertex."""
        return self.shards[node_id].index_vertices(eid, d, meter=meter,
                                                   category=category)

    def gather_index(self, home_node: int, eid: int, d: int,
                     meter: LatencyMeter, category: str = "store") -> List[int]:
        """The full index vertex, gathering remote portions over the fabric."""
        vertices: List[int] = []
        for node_id, shard in enumerate(self.shards):
            part = shard.index_vertices(eid, d, meter=meter, category=category)
            if node_id != home_node and part:
                self.cluster.fabric.remote_read(
                    meter, 16 + 8 * len(part), category="network")
            vertices.extend(part)
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
    :meth:`index_vertices_local`.
    """

    def __init__(self, store: DistributedStore, home_node: int = 0,
                 max_sn: Optional[int] = None):
        self.store = store
        self.home_node = home_node
        self.max_sn = max_sn

    def resolve_entity(self, name: str) -> Optional[int]:
        return self.store.strings.lookup_entity(name)

    def resolve_predicate(self, name: str) -> Optional[int]:
        return self.store.strings.lookup_predicate(name)

    def neighbors(self, vid: int, eid: int, d: int,
                  meter: LatencyMeter) -> List[int]:
        return self.store.neighbors_many(self.home_node, (vid,), eid, d,
                                         meter, max_sn=self.max_sn)[vid]

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

    def index_vertices(self, eid: int, d: int,
                       meter: LatencyMeter) -> List[int]:
        return self.store.gather_index(self.home_node, eid, d, meter)

    def index_vertices_local(self, eid: int, d: int, node_id: int,
                             meter: LatencyMeter) -> List[int]:
        """One node's index portion (fork-join/migrate branch start set)."""
        return self.store.local_index(node_id, eid, d, meter)
