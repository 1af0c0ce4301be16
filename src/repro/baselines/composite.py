"""The composite design: a stream processor plus a separate Wukong store.

This is the conventional architecture the paper dissects in §2.3
(Fig. 3a/4): the continuous query is split at ``GRAPH`` boundaries; stream
patterns run as relational scans + hash joins inside a Storm/Heron-like
bolt topology, stored patterns are shipped to a Wukong instance as embedded
sub-queries, and partial results cross the system boundary paying
transformation (per tuple) and transmission (per byte) costs — the
*cross-system cost* (CC) that dominates Fig. 4.

Two query plans are supported:

``interleaved`` (Fig. 4a)
    Walk the WHERE clause in order, crossing into Wukong whenever a stored
    segment appears (GP1 -> GP2 -> GP3 for QC).
``stream_first`` (Fig. 4b)
    Join all stream patterns inside the processor first, then ship one
    (much larger) intermediate to Wukong — fewer crossings, worse pruning.

The composite design is not fully stateful: one-shot queries run on the
static store and never observe streamed timeless data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.baselines.relational import (Row, WindowBuffer, finalize,
                                        project, scan_join, scan_pattern,
                                        window_rows)
from repro.errors import UnsupportedOperationError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel
from repro.sparql.ast import Query, TriplePattern
from repro.sparql.planner import plan_steps
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer
from repro.streams.stream import StreamBatch

#: Wire size of one intermediate binding row crossing the system boundary.
_ROW_BYTES = 24


@dataclass
class CompositeBreakdown:
    """Per-component execution time of one query run (Fig. 4 rows)."""

    processor_ms: float = 0.0
    wukong_ms: float = 0.0
    cross_ms: float = 0.0
    segments: List[Tuple[str, float, int]] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.processor_ms + self.wukong_ms + self.cross_ms

    @property
    def cross_fraction(self) -> float:
        total = self.total_ms
        return self.cross_ms / total if total else 0.0


class CompositeEngine:
    """Storm/Heron + Wukong, carefully co-located as in the paper's setup."""

    def __init__(self, cluster: Cluster, framework: str = "storm",
                 plan: str = "interleaved",
                 memory: Optional[MemoryModel] = None):
        if framework not in ("storm", "heron"):
            raise ValueError(f"unknown framework: {framework}")
        if plan not in ("interleaved", "stream_first"):
            raise ValueError(f"unknown composite plan: {plan}")
        self.cluster = cluster
        self.cost: CostModel = cluster.cost
        self.memory = memory if memory is not None else MemoryModel()
        self.framework = framework
        self.plan_style = plan
        self.per_tuple_ns = (self.cost.storm_tuple_ns if framework == "storm"
                             else self.cost.heron_tuple_ns)
        self.per_execution_ns = (self.cost.storm_execution_ns
                                 if framework == "storm"
                                 else self.cost.heron_execution_ns)
        self.strings = StringServer()
        self.store = DistributedStore(cluster, self.strings)
        self.explorer = GraphExplorer(cluster, self.strings)
        self.buffers: Dict[str, WindowBuffer] = {}

    # -- data ------------------------------------------------------------
    def load_static(self, triples: Iterable[Triple]) -> int:
        return self.store.load(triples)

    def ingest(self, batch: StreamBatch) -> None:
        """Buffer one stream batch inside the stream processor."""
        self.buffers.setdefault(batch.stream, WindowBuffer(batch.stream)) \
            .extend(self.strings.encode_columns(batch.tuples))

    # -- continuous execution ------------------------------------------------
    def execute_continuous(self, query: Query, close_ms: int,
                           meter: Optional[LatencyMeter] = None
                           ) -> Tuple[List[tuple], LatencyMeter,
                                      CompositeBreakdown]:
        """One window execution; returns (rows, meter, breakdown)."""
        if query.optionals or query.unions:
            raise UnsupportedOperationError(
                "the composite design cannot split OPTIONAL/UNION groups "
                "across the stream processor and the store")
        if meter is None:
            meter = LatencyMeter()
        breakdown = CompositeBreakdown()
        meter.charge(self.per_execution_ns, category="processor")
        breakdown.processor_ms += self.per_execution_ns / 1e6
        segments = self._segments(query)
        rows: Optional[List[Row]] = None
        for location, patterns in segments:
            if location == "stream":
                rows = self._run_stream_segment(query, patterns, close_ms,
                                                rows, meter, breakdown)
            else:
                rows = self._run_stored_segment(patterns, rows, meter,
                                                breakdown)
            if rows == []:
                break
        final = finalize(rows or [], query, self.strings, meter,
                         self.cost)
        return final, meter, breakdown

    def execute_oneshot(self, query: Query,
                        meter: Optional[LatencyMeter] = None
                        ) -> Tuple[List[tuple], LatencyMeter]:
        """One-shot query on the *static* store (composite statefulness gap)."""
        if query.is_continuous:
            raise UnsupportedOperationError(
                "one-shot path cannot take stream windows")
        if meter is None:
            meter = LatencyMeter()
        steps = plan_steps(query.patterns)
        access = PersistentAccess(self.store, home_node=0)
        rows = self.explorer.explore(steps, lambda p: access, meter)
        return project(rows, query.projected(), meter, self.cost), meter

    # -- segmentation ------------------------------------------------------------
    def _segments(self, query: Query
                  ) -> List[Tuple[str, List[TriplePattern]]]:
        """Group patterns into processor/store segments per the plan style."""
        def location(pattern: TriplePattern) -> str:
            return "stream" if pattern.graph in query.windows else "stored"

        if self.plan_style == "stream_first":
            stream = [p for p in query.patterns if location(p) == "stream"]
            stored = [p for p in query.patterns if location(p) == "stored"]
            segments = []
            if stream:
                segments.append(("stream", stream))
            if stored:
                segments.append(("stored", stored))
            return segments

        segments = []
        for pattern in query.patterns:
            where = location(pattern)
            if segments and segments[-1][0] == where:
                segments[-1][1].append(pattern)
            else:
                segments.append((where, [pattern]))
        return segments

    # -- segment execution ------------------------------------------------------
    def _run_stream_segment(self, query: Query,
                            patterns: List[TriplePattern], close_ms: int,
                            rows: Optional[List[Row]], meter: LatencyMeter,
                            breakdown: CompositeBreakdown) -> List[Row]:
        """Scan + join stream patterns inside the processor."""
        segment_meter = LatencyMeter()

        def scan(pattern: TriplePattern) -> List[Row]:
            return scan_pattern(
                window_rows(self.buffers, query, pattern, close_ms),
                pattern, self.strings, segment_meter, self.per_tuple_ns,
                self.cost, category="processor")

        segment_rows = scan_join(rows, patterns, scan, segment_meter,
                                 self.cost, category="processor") or []
        breakdown.processor_ms += segment_meter.ms
        breakdown.segments.append(("processor", segment_meter.ms,
                                   len(segment_rows)))
        meter.add(segment_meter)
        return segment_rows

    def _run_stored_segment(self, patterns: List[TriplePattern],
                            rows: Optional[List[Row]], meter: LatencyMeter,
                            breakdown: CompositeBreakdown) -> List[Row]:
        """Cross into Wukong, run the stored patterns, cross back."""
        seeds = rows if rows is not None else [{}]

        # Outbound crossing: transform every seed row into Wukong's query
        # format and transmit (all tuples embedded into a single query to
        # minimise per-request costs, as the paper's careful setup does).
        cross_meter = LatencyMeter()
        cross_meter.charge(self.cost.transform_tuple_ns, times=len(seeds),
                           category="cross")
        self.cluster.fabric.message(cross_meter, _ROW_BYTES * len(seeds),
                                    category="cross")

        prebound: Set[str] = set().union(*(set(r) for r in seeds)) \
            if rows is not None else set()
        steps = plan_steps(patterns, prebound=prebound)
        access = PersistentAccess(self.store, home_node=0)
        wukong_meter = LatencyMeter()
        result = self.explorer.explore(steps, lambda p: access, wukong_meter,
                                       seeds=seeds)

        # Return crossing: transform and transmit the sub-results back.
        cross_meter.charge(self.cost.transform_tuple_ns, times=len(result),
                           category="cross")
        self.cluster.fabric.message(cross_meter, _ROW_BYTES * len(result),
                                    category="cross")

        breakdown.wukong_ms += wukong_meter.ms
        breakdown.cross_ms += cross_meter.ms
        breakdown.segments.append(("wukong", wukong_meter.ms, len(result)))
        meter.charge_ps(wukong_meter.ps, category="wukong")
        meter.charge_ps(cross_meter.ps, category="cross")
        return result
