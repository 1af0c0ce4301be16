"""Wukong/Ext: the intuitive extension of a static RDF store (§6.2).

Wukong/Ext bolts fast data injection onto Wukong: every stream tuple
(timing and timeless alike) is inserted straight into the underlying store
with its timestamp kept inline next to the value entry.  Consequences the
paper measures (Table 4):

* extracting a window means scanning the *entire* value list of each key
  and filtering by timestamp — no stream index, so latency grows with the
  amount of absorbed data (1.6x-4.4x slower than Wukong+S);
* timestamps and data are coupled in the store, so garbage collection is
  impractical: nothing is ever reclaimed and stale timestamps accumulate
  (its memory footprint grows without bound, unlike Wukong+S's GC'd
  index/transient slices).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.rdf.ids import DIR_IN, DIR_OUT, Key, make_key
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns, Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel
from repro.sparql.ast import Query
from repro.sparql.planner import plan_query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import ExecutionResult, GraphExplorer
from repro.streams.stream import StreamBatch


class _TimestampedWindowAccess:
    """Window reads by full-list scan + inline timestamp filtering."""

    def __init__(self, engine: "WukongExtEngine", start_ms: int, end_ms: int,
                 home_node: int):
        self.engine = engine
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.home_node = home_node

    def neighbors_many(self, starts: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        """Scan each distinct start's whole value list, keeping in-window
        entries; keyed in first-occurrence order."""
        engine = self.engine
        fetched = engine.store.neighbors_many(self.home_node, starts, eid, d,
                                              meter)
        stamps_of = engine.timestamps
        scanned = 0
        for start, values in fetched.items():
            stamps = stamps_of.get(make_key(start, eid, d), [])
            scanned += len(values)
            out: List[int] = []
            for offset, value in enumerate(values):
                ts = stamps[offset] if offset < len(stamps) else 0
                if self.start_ms <= ts < self.end_ms:
                    out.append(value)
            fetched[start] = out
        if fetched:
            meter.charge(engine.cost.timestamp_filter_ns, times=scanned,
                         category="ts-filter")
        return fetched

    def index_vertices(self, eid: int, d: int, meter: LatencyMeter,
                       owner: Optional[int] = None) -> List[int]:
        """No windowed index exists: enumerate every vertex ever seen
        (gathered whole; ``owner`` keeps the ones that node owns)."""
        vertices = self.engine.store.gather_index(self.home_node, eid, d,
                                                  meter)
        if owner is None:
            return vertices
        owner_of = self.engine.cluster.owner_of
        return [vid for vid in vertices if owner_of(vid) == owner]


class WukongExtEngine:
    """Wukong with naive streaming absorption."""

    def __init__(self, cluster: Cluster, memory: Optional[MemoryModel] = None):
        self.cluster = cluster
        self.cost: CostModel = cluster.cost
        self.memory = memory if memory is not None else MemoryModel()
        self.strings = StringServer()
        self.store = DistributedStore(cluster, self.strings)
        self.explorer = GraphExplorer(cluster, self.strings)
        #: Inline timestamps, parallel to each key's value list.
        self.timestamps: Dict[Key, List[int]] = {}
        self.stream_entries = 0

    # -- data ------------------------------------------------------------
    def load_static(self, triples: Iterable[Triple]) -> int:
        return self._insert(self.strings.encode_triples(triples)) // 2

    def ingest(self, batch: StreamBatch,
               meter: Optional[LatencyMeter] = None) -> None:
        """Absorb every tuple (timing and timeless) with inline timestamps."""
        columns = self.strings.encode_columns(batch.tuples)
        self.stream_entries += self._insert(columns, meter)

    def _insert(self, columns: EncodedColumns,
                meter: Optional[LatencyMeter] = None) -> int:
        """Write both halves of every row, each entry stamped inline in
        its key's arrival order; returns the entries written."""
        written = self.store.insert_columns(columns, meter=meter)
        timestamps = self.timestamps
        for s, p, o, ts in zip(columns.s, columns.p, columns.o, columns.ts):
            timestamps.setdefault(make_key(s, p, DIR_OUT), []).append(ts)
            timestamps.setdefault(make_key(o, p, DIR_IN), []).append(ts)
        return written

    # -- execution ------------------------------------------------------------
    def execute_continuous(self, query: Query, close_ms: int,
                           meter: Optional[LatencyMeter] = None,
                           home_node: int = 0
                           ) -> Tuple[ExecutionResult, LatencyMeter]:
        """One window execution via timestamp-filtered scans."""
        if meter is None:
            meter = LatencyMeter()
        meter.charge(self.cost.task_dispatch_ns, category="dispatch")
        spans = {stream: window.span_at(close_ms)
                 for stream, window in query.windows.items()}

        def factory(node_id):
            window_access = {
                stream: _TimestampedWindowAccess(self, start_ms, end_ms,
                                                 node_id)
                for stream, (start_ms, end_ms) in spans.items()
            }
            stored_access = PersistentAccess(self.store, home_node=node_id)

            def resolver(pattern):
                access = window_access.get(pattern.graph)
                return access if access is not None else stored_access

            return resolver

        result = self.explorer.execute(plan_query(query), factory, meter,
                                       home_node=home_node)
        return result, meter

    def execute_oneshot(self, query: Query,
                        meter: Optional[LatencyMeter] = None
                        ) -> Tuple[ExecutionResult, LatencyMeter]:
        if meter is None:
            meter = LatencyMeter()
        meter.charge(self.cost.task_dispatch_ns, category="dispatch")

        def factory(node_id):
            access = PersistentAccess(self.store, home_node=node_id)
            return lambda pattern: access

        result = self.explorer.execute(plan_query(query), factory, meter)
        return result, meter

    # -- memory (no GC: grows forever) --------------------------------------------
    def timestamp_bytes(self) -> int:
        """Inline-timestamp overhead that Wukong+S avoids entirely."""
        return sum(len(stamps) for stamps in self.timestamps.values()) \
            * self.memory.timestamp_bytes

    def memory_bytes(self) -> int:
        return self.store.memory_bytes() + self.timestamp_bytes()
