"""Engine observability: one-call snapshots of every subsystem's state.

Production stores ship a stats endpoint; this module aggregates the
counters the reproduction already keeps — store sizes, stream-index and
transient footprints, GC progress, fabric traffic, injection totals,
query registrations and latencies — into one typed snapshot with a
formatted dashboard, used by examples and operators alike.
:func:`collect_stats` is the one pull over those counters; the
simulated-time histograms live in ``repro.obs.metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.metrics import mean, median, percentile
from repro.core.engine import WukongSEngine


@dataclass
class StreamStats:
    """Per-stream ingestion and retention state."""

    name: str
    batches_delivered: int
    index_slices: int
    index_bytes: int
    index_replicas: int
    transient_slices: int
    transient_bytes: int
    raw_bytes: int


@dataclass
class QueryStats:
    """Per-continuous-query execution statistics."""

    name: str
    home_node: int
    executions: int
    median_ms: Optional[float]
    p99_ms: Optional[float]
    last_rows: Optional[int]
    #: Adaptive plan swaps applied so far (``repro.core.replan``).
    replans: int = 0


@dataclass
class CacheStats:
    """Hit/miss totals of the engine's wall-clock caches.

    The caches only change wall-clock speed (hits charge exactly what
    the uncached path would); these counters quantify how often the
    fast paths fire.  The ``plan_*`` / ``parse_*`` / ``temporal_plan_*``
    fields read ``engine.pipeline``: ``plan_*`` its ``oneshot`` kind,
    ``temporal_plan_*`` its ``interval`` kind.
    """

    plan_hits: int
    plan_misses: int
    parse_hits: int
    parse_misses: int
    adjacency_hits: int
    adjacency_misses: int
    adjacency_evictions: int
    adjacency_entries: int
    #: Executor executions that ran a step phase, summed across the
    #: continuous and one-shot explorers.
    batch_executions: int = 0
    #: Always 0: the row-at-a-time kernels are gone.  Kept because the
    #: repo benchmark's ``executor.executions`` / ``executor.batch_share``
    #: probes read it; drop it together with those probes.
    row_executions: int = 0
    #: Columnar window-view counters (continuous fast path): column
    #: probes served from a registered query's window view vs rebuilt
    #: from the stream index (``window_*``), columns dropped when a view
    #: advances or resets (``window_evictions``), and window advances
    #: that reused the previous close's columns incrementally vs
    #: rematerialized from scratch (``window_delta_*``).
    window_hits: int = 0
    window_misses: int = 0
    window_evictions: int = 0
    window_delta_hits: int = 0
    window_delta_misses: int = 0
    #: Temporal engine counters: interval-plan lookups (keyed AST +
    #: ordering + snapshot, so snapshot sweeps churn the plan cache),
    #: the plan cache's evictions (all kinds — it is one cache) and
    #: interval executions.
    temporal_plan_hits: int = 0
    temporal_plan_misses: int = 0
    temporal_plan_evictions: int = 0
    temporal_batch_executions: int = 0

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def plan_hit_rate(self) -> float:
        return self._rate(self.plan_hits, self.plan_misses)

    @property
    def adjacency_hit_rate(self) -> float:
        return self._rate(self.adjacency_hits, self.adjacency_misses)

    @property
    def window_hit_rate(self) -> float:
        return self._rate(self.window_hits, self.window_misses)

    @property
    def window_delta_rate(self) -> float:
        return self._rate(self.window_delta_hits, self.window_delta_misses)


@dataclass
class EngineStats:
    """A full engine snapshot."""

    clock_ms: int
    num_nodes: int
    stable_sn: int
    stable_vts: Dict[str, int]
    store_entries: int
    store_bytes: int
    tuples_injected: int
    mean_injection_ms: float
    rdma_reads: int
    messages: int
    gc_runs: int
    gc_transient_freed: int
    gc_index_freed: int
    streams: List[StreamStats] = field(default_factory=list)
    queries: List[QueryStats] = field(default_factory=list)
    caches: Optional[CacheStats] = None

    def format(self) -> str:
        """A terminal dashboard."""
        lines = [
            f"engine @ t={self.clock_ms / 1000:.1f}s  "
            f"nodes={self.num_nodes}  stable SN={self.stable_sn}",
            f"store: {self.store_entries:,} entries, "
            f"{self.store_bytes / 1024:.0f} KiB; injected "
            f"{self.tuples_injected:,} tuples "
            f"(mean {self.mean_injection_ms:.3f} ms/batch)",
            f"network: {self.rdma_reads:,} one-sided reads, "
            f"{self.messages:,} messages; "
            f"gc: {self.gc_runs} runs, "
            f"{self.gc_transient_freed + self.gc_index_freed} slices freed",
        ]
        if self.caches is not None:
            caches = self.caches
            lines.append(
                f"caches: plan {caches.plan_hits}/"
                f"{caches.plan_hits + caches.plan_misses} hits, "
                f"parse {caches.parse_hits}/"
                f"{caches.parse_hits + caches.parse_misses} hits, "
                f"adjacency {caches.adjacency_hit_rate:.1%} hit rate "
                f"({caches.adjacency_entries:,} entries, "
                f"{caches.adjacency_evictions:,} evictions)")
            lines.append(
                f"executor: {caches.batch_executions:,} executions")
            lines.append(
                f"temporal: {caches.temporal_batch_executions:,} interval "
                f"executions, plans {caches.temporal_plan_hits}/"
                f"{caches.temporal_plan_hits + caches.temporal_plan_misses} "
                f"hits ({caches.temporal_plan_evictions:,} evictions)")
            lines.append(
                f"window views: columns {caches.window_hit_rate:.1%} hit "
                f"rate ({caches.window_evictions:,} evictions), deltas "
                f"{caches.window_delta_hits}/"
                f"{caches.window_delta_hits + caches.window_delta_misses} "
                f"incremental")
        for stream in self.streams:
            lines.append(
                f"  stream {stream.name}: batch #{stream.batches_delivered}"
                f", index {stream.index_slices} slices/"
                f"{stream.index_bytes / 1024:.1f} KiB x{stream.index_replicas}"
                f" replicas, transient {stream.transient_slices} slices")
        for query in self.queries:
            stats = "no executions yet"
            if query.executions:
                stats = (f"{query.executions} runs, p50 "
                         f"{query.median_ms:.3f} ms, p99 "
                         f"{query.p99_ms:.3f} ms, last {query.last_rows} rows")
            if query.replans:
                stats += f", {query.replans} replans"
            lines.append(f"  query {query.name} @node{query.home_node}: "
                         f"{stats}")
        return "\n".join(lines)


def collect_stats(engine: WukongSEngine) -> EngineStats:
    """Snapshot every subsystem of ``engine``."""
    fabric = engine.cluster.fabric.stats
    injection_ms = [r.total_ms for r in engine.injection_records
                    if r.num_tuples > 0]
    streams = []
    for name in engine.schemas:
        index = engine.registry.index(name)
        transients = engine.transients[name]
        streams.append(StreamStats(
            name=name,
            batches_delivered=engine._last_delivered.get(name, 0),
            index_slices=index.num_slices,
            index_bytes=index.memory_bytes(),
            index_replicas=max(1, len(engine.registry.replicas(name))),
            transient_slices=sum(t.num_slices for t in transients),
            transient_bytes=sum(t.memory_bytes() for t in transients),
            raw_bytes=engine.raw_stream_bytes(name),
        ))
    window_hits = window_misses = window_evictions = 0
    delta_hits = delta_misses = 0
    for handle in engine.continuous.queries.values():
        for view in handle.window_views.values():
            window_hits += view.hits
            window_misses += view.misses
            window_evictions += view.evictions
            delta_hits += view.delta_hits
            delta_misses += view.delta_misses
    pipeline = engine.pipeline
    caches = CacheStats(
        plan_hits=pipeline.plan_hits["oneshot"],
        plan_misses=pipeline.plan_misses["oneshot"],
        parse_hits=pipeline.texts.hits,
        parse_misses=pipeline.texts.misses,
        adjacency_hits=sum(s.adjacency_hits for s in engine.store.shards),
        adjacency_misses=sum(s.adjacency_misses
                             for s in engine.store.shards),
        adjacency_evictions=sum(s.adjacency_evictions
                                for s in engine.store.shards),
        adjacency_entries=sum(len(s._adjacency)
                              for s in engine.store.shards),
        batch_executions=(engine.continuous.explorer.batch_executions
                          + engine.oneshot_engine.explorer.batch_executions),
        window_hits=window_hits,
        window_misses=window_misses,
        window_evictions=window_evictions,
        window_delta_hits=delta_hits,
        window_delta_misses=delta_misses,
        temporal_plan_hits=pipeline.plan_hits["interval"],
        temporal_plan_misses=pipeline.plan_misses["interval"],
        temporal_plan_evictions=pipeline.plans.evictions,
        temporal_batch_executions=engine.temporal.batch_executions,
    )
    queries = []
    for handle in engine.continuous.queries.values():
        latencies = [rec.latency_ms for rec in handle.executions]
        queries.append(QueryStats(
            name=handle.name,
            home_node=handle.home_node,
            executions=len(latencies),
            median_ms=median(latencies) if latencies else None,
            p99_ms=percentile(latencies, 99) if latencies else None,
            last_rows=(len(handle.executions[-1].result)
                       if handle.executions else None),
            replans=len(handle.replans),
        ))
    return EngineStats(
        clock_ms=engine.clock.now_ms,
        num_nodes=engine.cluster.num_nodes,
        stable_sn=engine.coordinator.stable_sn,
        stable_vts=engine.coordinator.stable_vts().as_dict(),
        store_entries=engine.store.num_entries,
        store_bytes=engine.store.memory_bytes(),
        tuples_injected=sum(i.tuples_injected for i in engine.injectors),
        mean_injection_ms=mean(injection_ms) if injection_ms else 0.0,
        rdma_reads=fabric.rdma_reads,
        messages=fabric.messages,
        gc_runs=engine.gc.stats.runs,
        gc_transient_freed=engine.gc.stats.transient_slices_freed,
        gc_index_freed=engine.gc.stats.index_slices_freed,
        streams=streams,
        queries=queries,
        caches=caches,
    )
