"""Engine observability: one-call snapshots of every subsystem's state.

Production stores ship a stats endpoint; this module aggregates the
counters the reproduction already keeps — store sizes, stream-index and
transient footprints, GC progress, fabric traffic, injection totals,
query registrations and latencies — into one typed snapshot with a
formatted dashboard, used by examples and operators alike.

It also hosts :class:`PredicateStatistics`, the live per-predicate
cardinality view the cost-aware planner consumes (collected at
load/injection time by ``ShardStore``; see ``repro.sparql.planner``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.metrics import mean, median, percentile
from repro.core.engine import WukongSEngine
from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.store.distributed import DistributedStore


@dataclass(frozen=True)
class StatsSnapshot:
    """A frozen, point-in-time capture of :class:`PredicateStatistics`.

    The adaptive re-planner (``repro.core.replan``) must make its
    keep-or-swap decision and compute both plans' cost estimates from *one*
    consistent set of numbers — reading the live view twice could interleave
    with injection and compare plans under different statistics.  A snapshot
    captures every estimate a given pattern set can ask for (predicate
    means, index sizes, and the specific degrees of the constants that
    actually appear) into plain dicts, plus the ``epoch`` the capture was
    taken at, so a re-plan decision is a pure function of
    ``(patterns, epoch)`` and reproducible after the fact.

    Exposes the same five accessors as the live view, so it can be passed
    anywhere a statistics provider is accepted (``plan_order``,
    ``estimate_plan_cost``).
    """

    #: Monotone store-growth counter at capture time (see
    #: :meth:`PredicateStatistics.epoch`).
    epoch: int
    out_degrees: Dict[str, float]
    in_degrees: Dict[str, float]
    index_sizes: Dict[str, float]
    subject_degrees: Dict[Tuple[str, str], float]
    object_degrees: Dict[Tuple[str, str], float]

    def out_degree(self, predicate: str) -> float:
        return self.out_degrees.get(predicate, 0.0)

    def in_degree(self, predicate: str) -> float:
        return self.in_degrees.get(predicate, 0.0)

    def index_size(self, predicate: str) -> float:
        return self.index_sizes.get(predicate, 0.0)

    def subject_degree(self, predicate: str, term: str) -> float:
        return self.subject_degrees.get((predicate, term),
                                        self.out_degree(predicate))

    def object_degree(self, predicate: str, term: str) -> float:
        return self.object_degrees.get((predicate, term),
                                       self.in_degree(predicate))


class PredicateStatistics:
    """Selectivity estimates from the store's cardinality counters.

    A *live view*: every estimate reads the shards' current counters, so
    plans adapt as injection evolves the store without any refresh hook.
    All three accessors are pure functions of deterministic counters,
    which makes statistics-driven plan ordering reproducible run-to-run.
    Predicates the store has never seen estimate to 0.0 — unknown
    predicates produce empty results, the cheapest possible step.

    Estimates (Strider-style, arXiv:1705.05688):

    ``out_degree(p)``   mean neighbours per subject — the fan-out of a
                        forward traversal through ``p``.
    ``in_degree(p)``    mean neighbours per object — the fan-out of a
                        reverse traversal.
    ``index_size(p)``   total ``p`` edges — the enumeration cost of an
                        index-vertex start.

    Constant-specific estimates replace the means with the constant's
    exact degree, read off its value list (``DistributedStore.degree``),
    so the planner can tell a hot hashtag from a cold one instead of
    charging both the mean; a constant with no such edge falls back to
    the mean:

    ``subject_degree(p, term)``  degree of the specific subject constant.
    ``object_degree(p, term)``   degree of the specific object constant.
    """

    def __init__(self, store: DistributedStore):
        self.store = store
        self.strings = store.strings

    def _cardinality(self, predicate: str, d: int) -> Tuple[int, int]:
        eid = self.strings.lookup_predicate(predicate)
        if eid is None:
            return 0, 0
        return self.store.predicate_cardinality(eid, d)

    def out_degree(self, predicate: str) -> float:
        entries, keys = self._cardinality(predicate, DIR_OUT)
        return entries / keys if keys else 0.0

    def in_degree(self, predicate: str) -> float:
        entries, keys = self._cardinality(predicate, DIR_IN)
        return entries / keys if keys else 0.0

    def index_size(self, predicate: str) -> float:
        return float(self._cardinality(predicate, DIR_OUT)[0])

    def _specific_degree(self, predicate: str, term: str, d: int,
                         fallback) -> float:
        eid = self.strings.lookup_predicate(predicate)
        vid = self.strings.lookup_entity(term)
        if eid is not None and vid is not None:
            degree = self.store.degree(eid, d, vid)
            if degree is not None:
                return float(degree)
        return fallback(predicate)

    def subject_degree(self, predicate: str, term: str) -> float:
        """Fan-out of the specific constant subject ``term`` (its exact
        degree, else the predicate's mean out-degree)."""
        return self._specific_degree(predicate, term, DIR_OUT,
                                     self.out_degree)

    def object_degree(self, predicate: str, term: str) -> float:
        """Fan-in of the specific constant object ``term`` (its exact
        degree, else the predicate's mean in-degree)."""
        return self._specific_degree(predicate, term, DIR_IN,
                                     self.in_degree)

    def epoch(self) -> int:
        """A monotone counter of store growth: total adjacency entries
        inserted across every shard's per-predicate buckets.

        Inserts only ever increment the underlying counters, so two calls
        returning the same epoch saw the *same* statistics — which lets the
        adaptive re-planner stamp each decision with the epoch it was made
        under and lets tests assert that equal epochs imply equal
        snapshots.  Cheap: the sum walks per-(predicate, direction) buckets,
        not entries.
        """
        return sum(sum(shard._pred_entries.values())
                   for shard in self.store.shards)

    def snapshot(self, patterns) -> StatsSnapshot:
        """Freeze every estimate ``patterns`` can ask for (see
        :class:`StatsSnapshot`).  Constants are captured with their
        specific (exact) degrees under the predicate they appear with."""
        from repro.sparql.ast import is_variable
        out_degrees: Dict[str, float] = {}
        in_degrees: Dict[str, float] = {}
        index_sizes: Dict[str, float] = {}
        subject_degrees: Dict[Tuple[str, str], float] = {}
        object_degrees: Dict[Tuple[str, str], float] = {}
        for pattern in patterns:
            predicate = pattern.predicate
            if predicate not in out_degrees:
                out_degrees[predicate] = self.out_degree(predicate)
                in_degrees[predicate] = self.in_degree(predicate)
                index_sizes[predicate] = self.index_size(predicate)
            if not is_variable(pattern.subject):
                subject_degrees[(predicate, pattern.subject)] = \
                    self.subject_degree(predicate, pattern.subject)
            if not is_variable(pattern.object):
                object_degrees[(predicate, pattern.object)] = \
                    self.object_degree(predicate, pattern.object)
        return StatsSnapshot(
            epoch=self.epoch(), out_degrees=out_degrees,
            in_degrees=in_degrees, index_sizes=index_sizes,
            subject_degrees=subject_degrees, object_degrees=object_degrees)


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
            last_rows=(len(handle.executions[-1].result.rows)
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
