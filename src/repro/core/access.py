"""Store accesses used by continuous queries.

A continuous query mixes patterns over stream windows with patterns over
stored data.  The executor stays source-agnostic: registration builds one
:class:`WindowAccess` per consumed stream (dispatching timeless predicates
to the stream's columnar window view and timing predicates to the
transient store) and a snapshot-bounded
:class:`~repro.store.distributed.PersistentAccess` for stored patterns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.stream_index import (_MISSING, ColumnarSlice,
                                     StreamIndexRegistry)
from repro.core.transient import TransientStore
from repro.rdf.ids import _EID_SHIFT, _VID_SHIFT
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.streams.stream import StreamSchema

#: Approximate wire size of one remote index/transient probe result.
_PROBE_BYTES = 64

#: Shared read-only set served for cached-absent keys (never mutated).
_EMPTY_SET: set = set()


class WindowAccess:
    """`StoreAccess` over one stream's window, as seen from one node.

    Parameters
    ----------
    stream_schema:
        Classifies predicates into timing (transient store) and timeless
        (stream index into the persistent store).
    view:
        The stream's :class:`~repro.core.stream_index.ColumnarSlice`,
        already advanced to the window's inclusive batch range (which
        timing reads take from it too).  Timeless reads serve its flat columns and are charged from its probe
        count and cached span geometry: per probed key one
        ``index_probe_ns`` per live slice in the range, one remote read
        per merged span held off ``home_node``, one ``scan_entry_ns``
        per value.  The view is shared by the accesses of every branch
        node (charges depend only on ``home_node``, which each access
        applies itself).
    transients:
        Per-node transient stores of this stream.
    home_node:
        The node executing the query (prices remote accesses).
    """

    def __init__(self, cluster: Cluster, store: DistributedStore,
                 strings: StringServer, registry: StreamIndexRegistry,
                 stream_schema: StreamSchema,
                 transients: List[TransientStore],
                 view: ColumnarSlice, home_node: int = 0,
                 force_local_index: bool = False):
        self.cluster = cluster
        self.store = store
        self.strings = strings
        self.registry = registry
        self.schema = stream_schema
        self.transients = transients
        self.first_batch = view.first_batch
        self.last_batch = view.last_batch
        self.home_node = home_node
        self.view = view
        self._cost = registry.index(stream_schema.name).cost
        # Registered queries have the index replicated to their node;
        # distributed branches get on-demand replicas (§4.2).
        self._index_local = force_local_index or \
            registry.is_local(stream_schema.name, home_node)
        #: eid -> is-timing memo (the schema and string table never remap
        #: an encoded predicate, so the classification is stable).
        self._timing_eids: Dict[int, bool] = {}
        #: ``(fetched, {start: column})`` of the latest timeless
        #: :meth:`neighbors_many`, letting the charge-free follow-up hooks
        #: serve their sets/verdicts from the columns already in hand
        #: instead of re-probing the view.  Matched by identity on the
        #: exact ``fetched`` dict the caller passes back.
        self._last_fetch: Optional[tuple] = None

    def _is_timing(self, eid: int) -> bool:
        timing = self._timing_eids.get(eid)
        if timing is None:
            timing = self.schema.is_timing(self.strings.predicate_name(eid))
            self._timing_eids[eid] = timing
        return timing

    # -- StoreAccess protocol ------------------------------------------------
    def neighbors_many(self, starts: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        """Neighbour lists for every distinct start, keyed by start.

        One probe per distinct start.  A timing predicate reads each
        start from its owner's transient store; a timeless one serves
        the view's window columns (see the class docstring for what is
        charged), with the probe, scan and remote-read charges of all
        starts issued as three aggregated calls.
        """
        fetched: Dict[int, List[int]] = {}
        if self._is_timing(eid):
            for start in starts:
                if start not in fetched:
                    fetched[start] = self._timing_neighbors(start, eid, d,
                                                            meter)
            return fetched
        view = self.view
        cost = self._cost
        probes = view.probes
        index_local = self._index_local
        fabric = self.cluster.fabric
        home = self.home_node
        key_column = view.key_column
        columns_get = view._columns.get
        eid_bits = (eid << _EID_SHIFT) | d
        hits = 0
        scan_acc = 0
        reads = 0
        read_bytes = 0
        # C-level first-occurrence dedup: the loop below runs once per
        # distinct start instead of once per row.  The view's cache-hit
        # path (a plain dict probe on the inlined packed key) is hoisted
        # out of ``key_column``; hit counting is batched below.
        cols: Dict[int, object] = {}
        for start in dict.fromkeys(starts):
            col = columns_get((start << _VID_SHIFT) | eid_bits, _MISSING)
            if col is _MISSING:
                col = key_column((start << _VID_SHIFT) | eid_bits)
            else:
                hits += 1
            cols[start] = col
            if col is None:
                fetched[start] = []
                continue
            for owner, _, length in col.merged:
                if owner != home:
                    reads += 1
                    read_bytes += 16 + 8 * length
                scan_acc += length
            fetched[start] = col.values
        # Remote reads are exact integer prices: the per-start index
        # probes and the per-span value reads go out as one charge.
        if not index_local:
            reads += len(cols)
            read_bytes += _PROBE_BYTES * len(cols)
        fabric.remote_reads(meter, reads, read_bytes,
                            category="network")
        if probes and cols:
            meter.charge(cost.index_probe_ns, times=probes * len(cols),
                         category="store")
        if scan_acc:
            meter.charge(cost.scan_entry_ns, times=scan_acc,
                         category="store")
        if hits:
            view.hits += hits
        self._last_fetch = (fetched, cols)
        return fetched

    def neighbor_sets(self, starts: Iterable[int], eid: int,
                      d: int) -> Optional[Dict[int, set]]:
        """Memoized per-start membership sets for the neighbour lists the
        latest timeless :meth:`neighbors_many` returned as ``starts``, or
        None for any other dict — a timing predicate's has no window
        column to remember them on — and the caller builds its own sets.
        Charge-free: the membership filter is executor bookkeeping."""
        last = self._last_fetch
        if last is None or last[0] is not starts:
            return None
        return {start: _EMPTY_SET if col is None else col.value_set()
                for start, col in last[1].items()}

    def distinct_neighbors(self, starts: Iterable[int], eid: int,
                           d: int) -> Optional[bool]:
        """Memoized duplicate-free verdict for the neighbour lists the
        latest timeless :meth:`neighbors_many` returned as ``starts``, or
        None for any other dict (the caller then derives the verdict
        itself).  Charge-free: the distinct check is executor
        bookkeeping."""
        last = self._last_fetch
        if last is None or last[0] is not starts:
            return None
        return all(col is None or col.is_distinct()
                   for col in last[1].values())

    def index_vertices(self, eid: int, d: int, meter: LatencyMeter,
                       owner: Optional[int] = None) -> List[int]:
        """The window's start vertices, or those ``owner`` holds.

        Fork-join/migrate branches partition the start set by owner; the
        stream index is consulted once (it is replicated where needed),
        so only a whole-window read pays the index-locality read.
        """
        if self._is_timing(eid):
            if owner is not None:
                return self.transients[owner].vertices(
                    eid, d, self.first_batch, self.last_batch, meter=meter)
            out: List[int] = []
            seen = set()
            for node_id, transient in enumerate(self.transients):
                if node_id != self.home_node:
                    self.cluster.fabric.remote_read(meter, _PROBE_BYTES,
                                                    category="network")
                for vertex in transient.vertices(
                        eid, d, self.first_batch, self.last_batch,
                        meter=meter):
                    if vertex not in seen:
                        seen.add(vertex)
                        out.append(vertex)
            return out
        if owner is None and not self._index_local:
            # A non-replicated index costs one extra remote read per
            # access — exactly the read that locality-aware replication
            # removes (§4.2).
            self.cluster.fabric.remote_read(meter, _PROBE_BYTES,
                                            category="network")
        vertices, scanned = self.view.vertices(eid, d)
        # One start-column read: a probe per live slice in the range
        # plus a scan of every member those slices list.
        probes = self.view.probes
        if probes:
            meter.charge(self._cost.index_probe_ns, times=probes,
                         category="store")
            meter.charge(self._cost.scan_entry_ns, times=scanned,
                         category="store")
        if owner is None:
            return list(vertices)  # the cached column is shared
        owner_of = self.cluster.owner_of
        return [vid for vid in vertices if owner_of(vid) == owner]

    # -- paths -----------------------------------------------------------------
    def _timing_neighbors(self, vid: int, eid: int, d: int,
                          meter: LatencyMeter) -> List[int]:
        """Transient-store path: the data lives on the vertex's owner node."""
        owner = self.cluster.owner_of(vid)
        if owner != self.home_node:
            self.cluster.fabric.remote_read(meter, _PROBE_BYTES,
                                            category="network")
        return self.transients[owner].lookup(
            vid, eid, d, self.first_batch, self.last_batch, meter=meter)
