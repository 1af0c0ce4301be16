"""Label-aware metrics: counters, gauges, simulated-time histograms.

A :class:`MetricsRegistry` is the second observability layer: cheap
always-on counters kept by the subsystems themselves (cache hit/miss
totals on the store and the engines, retry counters on proxies, GC
counters) are *pulled* into the registry by :func:`collect_metrics`, and
the engine's hot paths *push* latency observations (injection batches,
continuous window closes, one-shot executions) into simulated-time
histograms when a registry is attached via ``engine.metrics``.

Everything is deterministic: metric keys are ``name{label=value,...}``
with sorted labels, histograms bucket simulated nanoseconds on a fixed
ladder, and :meth:`MetricsRegistry.snapshot` returns canonically sorted
JSON-safe dicts — two runs of the same workload snapshot identically.

Like the tracer, the registry never touches a LatencyMeter: observing a
latency reads ``meter.ns``; it cannot move simulated time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Default histogram ladder for simulated latencies (ns): 1 us .. 10 s.
SIM_NS_BUCKETS = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)


def _key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last set wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Bucketed distribution of simulated-time observations.

    ``buckets`` are inclusive upper bounds in ns; observations above the
    last bound land in the implicit overflow bucket.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...] = SIM_NS_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, ns: float) -> None:
        self.counts[bisect_left(self.buckets, ns)] += 1
        self.total += ns
        self.count += 1

    @property
    def mean_ns(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"buckets_ns": list(self.buckets),
                "counts": list(self.counts),
                "total_ns": self.total, "count": self.count}


class MetricsRegistry:
    """Get-or-create registry of labelled metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = SIM_NS_BUCKETS,
                  **labels) -> Histogram:
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        return metric

    # -- inspection --------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical JSON-safe dump (sorted keys at every level)."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].as_dict()
                           for k in sorted(self._histograms)},
        }

    def render(self) -> str:
        """A terminal dump: one metric per line."""
        lines: List[str] = []
        for key in sorted(self._counters):
            lines.append(f"{key} {self._counters[key].value}")
        for key in sorted(self._gauges):
            lines.append(f"{key} {self._gauges[key].value:g}")
        for key in sorted(self._histograms):
            hist = self._histograms[key]
            lines.append(f"{key} count={hist.count} "
                         f"mean={hist.mean_ns / 1e6:.3f}ms")
        return "\n".join(lines)


def collect_metrics(engine, registry: Optional[MetricsRegistry] = None,
                    proxies=None, serving=None) -> MetricsRegistry:
    """Pull every subsystem's always-on counters into ``registry``.

    ``engine`` is a :class:`~repro.core.engine.WukongSEngine`; ``proxies``
    an optional iterable of :class:`~repro.client.proxy.Proxy` (or a
    ``ProxyPool``, which iterates its proxies); ``serving`` an optional
    :class:`~repro.serving.server.ServingLayer` (its sharing/admission
    counters are pulled here; its per-tenant latency histograms live in
    the registry the layer pushes to).  Safe to call repeatedly:
    gauges are overwritten, pulled counters are set (not incremented), so
    the registry always reflects the engine's cumulative totals.
    """
    if registry is None:
        registry = engine.metrics if engine.metrics is not None \
            else MetricsRegistry()
    # The query pipeline's caches (repro.core.pipeline): parsed texts,
    # and compiled plans counted per kind of query (a re-plan misses by
    # design: a new ordering is a new key, hence a fresh compiled
    # executor).
    pipeline = engine.pipeline
    registry.counter("parse_cache_hits").value = pipeline.texts.hits
    registry.counter("parse_cache_misses").value = pipeline.texts.misses
    plan_hits, plan_misses = pipeline.plan_hits, pipeline.plan_misses
    registry.counter("plan_cache_hits").value = plan_hits["oneshot"]
    registry.counter("plan_cache_misses").value = plan_misses["oneshot"]
    registry.counter("continuous_plan_cache_hits").value = \
        plan_hits["continuous"]
    registry.counter("continuous_plan_cache_misses").value = \
        plan_misses["continuous"]
    registry.counter("temporal_plan_cache_hits").value = \
        plan_hits["interval"]
    registry.counter("temporal_plan_cache_misses").value = \
        plan_misses["interval"]
    registry.counter("temporal_plan_cache_evictions").value = \
        pipeline.plans.evictions
    # Interval executions (temporal_snapshot_reads /
    # temporal_version_entries / temporal_ns are pushed per-execution by
    # the temporal engine itself).
    registry.counter("temporal_batch_executions").value = \
        engine.temporal.batch_executions
    # Adaptive re-planning decisions (repro.core.replan); the per-query
    # planner_replans / planner_replan_skipped_* counters and the
    # estimated-vs-actual cost gauges are pushed by the monitor itself
    # when a registry is attached.
    monitor = getattr(engine, "plan_monitor", None)
    if monitor is not None:
        registry.counter("planner_replan_checks").value = monitor.checks
        registry.counter("planner_replans_total").value = monitor.replans
        registry.counter("planner_replans_skipped_hysteresis_total").value = \
            monitor.skipped_hysteresis
        registry.counter("planner_replans_skipped_cooldown_total").value = \
            monitor.skipped_cooldown
    # Adjacency-segment caches, per shard and total.
    hits = misses = evictions = entries = 0
    for node_id, shard in enumerate(engine.store.shards):
        registry.gauge("adjacency_cache_entries", node=node_id).set(
            len(shard._adjacency))
        registry.gauge("adjacency_cache_capacity", node=node_id).set(
            shard.adjacency_capacity)
        hits += shard.adjacency_hits
        misses += shard.adjacency_misses
        evictions += shard.adjacency_evictions
        entries += len(shard._adjacency)
    registry.counter("adjacency_cache_hits").value = hits
    registry.counter("adjacency_cache_misses").value = misses
    registry.counter("adjacency_cache_evictions").value = evictions
    registry.gauge("adjacency_cache_entries_total").set(entries)
    # Columnar window views (continuous fast path), per stream and total.
    w_hits = w_misses = w_evictions = d_hits = d_misses = 0
    for handle in engine.continuous.queries.values():
        for stream, view in handle.window_views.items():
            registry.gauge("window_view_columns", query=handle.name,
                           stream=stream).set(len(view._columns))
            w_hits += view.hits
            w_misses += view.misses
            w_evictions += view.evictions
            d_hits += view.delta_hits
            d_misses += view.delta_misses
    registry.counter("window_view_hits").value = w_hits
    registry.counter("window_view_misses").value = w_misses
    registry.counter("window_view_evictions").value = w_evictions
    registry.counter("window_delta_hits").value = d_hits
    registry.counter("window_delta_misses").value = d_misses
    # Store / stream index / transient footprints.
    registry.gauge("store_entries").set(engine.store.num_entries)
    registry.gauge("store_bytes").set(engine.store.memory_bytes())
    for name in engine.schemas:
        index = engine.registry.index(name)
        registry.gauge("stream_index_slices", stream=name).set(
            index.num_slices)
        registry.gauge("stream_index_bytes", stream=name).set(
            engine.registry.memory_bytes(name))
        registry.gauge("transient_slices", stream=name).set(
            sum(t.num_slices for t in engine.transients[name]))
    # Fabric traffic.
    fabric = engine.cluster.fabric.stats
    registry.counter("fabric_rdma_reads").value = fabric.rdma_reads
    registry.counter("fabric_messages").value = fabric.messages
    # GC.
    registry.counter("gc_runs").value = engine.gc.stats.runs
    registry.counter("gc_transient_slices_freed").value = \
        engine.gc.stats.transient_slices_freed
    registry.counter("gc_index_slices_freed").value = \
        engine.gc.stats.index_slices_freed
    # Injection totals.
    registry.counter("tuples_injected").value = \
        sum(i.tuples_injected for i in engine.injectors)
    # Per-node stream routing load (the serving layer's one-shot
    # placement signal).
    routed: Dict[int, int] = {}
    for dispatcher in engine.dispatchers.values():
        for node_id, tuples in dispatcher.tuples_routed.items():
            routed[node_id] = routed.get(node_id, 0) + tuples
    for node_id in sorted(routed):
        registry.gauge("dispatch_tuples_routed", node=node_id).set(
            routed[node_id])
    # Proxy retry behaviour.
    if proxies is not None:
        pool = getattr(proxies, "proxies", proxies)
        for proxy in pool:
            stats = proxy.stats
            labels = {"proxy": proxy.proxy_id}
            registry.counter("proxy_oneshot_requests", **labels).value = \
                stats.oneshot_requests
            registry.counter("proxy_timeouts", **labels).value = \
                stats.timeouts
            registry.counter("proxy_retries", **labels).value = stats.retries
            registry.counter("proxy_failures", **labels).value = \
                stats.failures
            registry.counter("proxy_multiplexed_subscriptions",
                             **labels).value = \
                stats.multiplexed_subscriptions
            registry.counter("proxy_results_decoded", **labels).value = \
                stats.results_decoded
            registry.counter("proxy_rows_decoded", **labels).value = \
                stats.rows_decoded
            registry.counter("proxy_decodes_shared", **labels).value = \
                stats.decodes_shared
    # Serving layer: sharing, fan-out and admission counters.  The
    # per-tenant latency histograms are pushed by the layer itself into
    # its own registry as requests are served.
    if serving is not None:
        snapshot = serving.snapshot()
        registry.gauge("serving_subscriptions").set(snapshot.subscriptions)
        registry.gauge("serving_shared_queries").set(snapshot.shared_queries)
        registry.gauge("serving_backlog").set(snapshot.backlog)
        registry.counter("serving_shared_hits").value = snapshot.shared_hits
        registry.counter("serving_shared_misses").value = \
            snapshot.shared_misses
        registry.counter("serving_closes_evaluated").value = \
            snapshot.closes_evaluated
        registry.counter("serving_results_delivered").value = \
            snapshot.results_delivered
        registry.counter("serving_executions_saved").value = \
            snapshot.executions_saved
        registry.counter("serving_results_decoded").value = \
            snapshot.results_decoded
        registry.counter("serving_rows_decoded").value = \
            snapshot.rows_decoded
        registry.counter("serving_decodes_shared").value = \
            snapshot.decodes_shared
        registry.counter("serving_oneshots_served").value = \
            snapshot.oneshots_served
        registry.counter("serving_rejections_registration").value = \
            snapshot.registrations_rejected
        registry.counter("serving_rejections_backlog").value = \
            snapshot.oneshots_rejected
    return registry
