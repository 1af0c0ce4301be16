"""Spans around each layer's public entry points, recorded from here.

The traced pass wraps the functions named in :data:`PROBES` — resolved
by dotted path when the pass starts — so that every call records one
span ``(name, start, end, parent, op)``; ``op`` is the id of the tick or
query the driver was running, shared by everything it caused.  Spans
stay in memory until the run ends.  A layer's *busy* time is the summed
duration of its spans, its *self* time that minus the part its child
spans cover.  Nothing under ``src/`` is edited: a probe is a
``setattr`` on a class (or, for the two module-level functions, on every
loaded ``repro`` module that imported the name) and is undone by
:meth:`Tracer.uninstall`.

A target that no longer exists is listed in ``Tracer.missing`` and its
metrics read ``None``: a later change that merges two layers loses two
per-layer numbers, not its benchmark.  End-to-end metrics never come
from a traced pass.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, "module:attr.path", metric, kind)``.  ``busy`` and
#: ``self`` sum the spans of the measured phase (those under a driver
#: root span); ``setup`` sums the durations of the spans before it.
#: Several spans may feed one metric.
PROBES: List[Tuple[str, str, str, str]] = [
    ("engine.step", "repro.core.engine:WukongSEngine.step",
     "engine.step_self_s", "self"),
    ("engine.oneshot", "repro.core.engine:WukongSEngine.oneshot",
     "oneshot.self_s", "self"),
    ("engine.register_continuous",
     "repro.core.engine:WukongSEngine.register_continuous",
     "continuous.register_s", "setup"),
    ("adaptor.adapt", "repro.core.adaptor:Adaptor.adapt",
     "adaptor.busy_s", "busy"),
    ("dispatcher.dispatch", "repro.core.dispatcher:Dispatcher.dispatch",
     "dispatcher.busy_s", "busy"),
    ("injector.inject", "repro.core.injector:Injector.inject",
     "injector.busy_s", "busy"),
    ("stream_index.append_slice",
     "repro.core.stream_index:StreamIndex.append_slice",
     "stream_index.append_s", "busy"),
    ("coordinator.advance", "repro.core.coordinator:Coordinator.advance",
     "coordinator.advance_s", "busy"),
    ("gc.run", "repro.core.gc:GarbageCollector.run", "gc.busy_s", "busy"),
    ("continuous.poll", "repro.core.continuous:ContinuousEngine.poll",
     "continuous.poll_self_s", "self"),
    ("oneshot.execute", "repro.core.oneshot:OneShotEngine.execute",
     "oneshot.self_s", "self"),
    ("executor.execute", "repro.store.executor:GraphExplorer.execute",
     "executor.busy_s", "busy"),
    ("temporal.execute", "repro.temporal.engine:TemporalEngine.execute",
     "temporal.busy_s", "busy"),
    ("sparql.parse", "repro.sparql.parser:parse_query",
     "sparql.parse_s", "busy"),
    ("sparql.plan", "repro.sparql.planner:plan_query",
     "sparql.plan_s", "busy"),
    ("client.prepare", "repro.client.library:ClientLibrary.prepare",
     "client.prepare_s", "busy"),
    ("client.submit", "repro.client.library:ClientLibrary.submit",
     "client.decode_s", "self"),
    ("client.poll", "repro.client.library:ClientSubscription.poll",
     "client.decode_s", "self"),
    ("serving.register", "repro.serving.server:ServingLayer.register",
     "serving.register_s", "setup"),
    ("serving.submit", "repro.serving.server:ServingLayer.submit",
     "serving.tick_self_s", "self"),
    ("serving.tick", "repro.serving.server:ServingLayer.tick",
     "serving.tick_self_s", "self"),
    ("scheduler.drain", "repro.serving.scheduler:FairScheduler.drain",
     "serving.tick_self_s", "self"),
    ("registry.resolve", "repro.serving.registry:SharedQueryRegistry.resolve",
     "serving.resolve_s", "setup"),
]
#: Spans that also count something about their return value.
COUNTS: Dict[str, Tuple[str, Callable]] = {
    "executor.execute": ("executor.rows_out", lambda r: len(r.rows)),
}
#: Name of the driver's own root span (one per tick or query).
ROOT = "driver.step"


class Tracer:
    """In-memory span recorder and probe installer."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id, count]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = 0
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def probe(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        probe.__wrapped__ = fn
        return probe

    def root(self, fn: Callable, *args):
        """Run one driver step under a root span with a fresh op id."""
        self.op += 1
        return self.wrap(ROOT, fn)(*args)

    # -- installing ----------------------------------------------------------
    def install(self) -> None:
        for name, target, _, _ in PROBES:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            counting = COUNTS.get(name)
            probe = self.wrap(name, original,
                              counting[1] if counting else None)
            holders = [owner]
            if not parents:
                # A module-level function: rebind the name wherever a
                # ``from ... import`` copied it.
                holders = [m for n, m in list(sys.modules.items())
                           if n.startswith("repro") and
                           getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, probe)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------
    def layer_times(self) -> Dict[str, Optional[float]]:
        """Per-metric seconds, plus ``trace.coverage``: the share of the
        root spans' time that named layer spans account for."""
        child_s: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        busy: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        setup: Dict[str, float] = defaultdict(float)
        counted: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, op, count) in enumerate(self.spans):
            if op == 0:  # before the first driver step: set-up
                setup[name] += end - start
                continue
            busy[name] += end - start
            own[name] += end - start - child_s[index]
            counted[name] += count
        sums = {"busy": busy, "self": own, "setup": setup}
        gone = {name for name, target, _, _ in PROBES
                if target in self.missing}
        out: Dict[str, Optional[float]] = {}
        for name, _, metric, kind in PROBES:
            if name in gone:
                out.setdefault(metric, None)
                continue
            out[metric] = (out.get(metric) or 0.0) + sums[kind][name]
        for name, (metric, _) in COUNTS.items():
            out[metric] = None if name in gone else counted[name]
        wall = busy[ROOT]
        out["trace.coverage"] = 1.0 - own[ROOT] / wall if wall else None
        return out

    def dump(self) -> dict:
        """The spans as written to ``out/trace-<workload>.json``."""
        return {"columns": ["name", "start_s", "end_s", "parent", "op",
                            "count"],
                "probes_missing": self.missing, "spans": self.spans}


class GcWatch:
    """Counts the interpreter's gen-2 collections and times their pauses
    (``gc.callbacks`` — nothing in the program is touched)."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _ratio(hits: float, misses: float) -> Optional[float]:
    return hits / (hits + misses) if hits + misses else None


def percentile(values: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile (a sample value, so exact for simulated
    statistics); ``None`` of an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


#: Counters that only grow: reported as the measured phase's increase.
CUMULATIVE = frozenset((
    "adaptor.tuples", "injector.inserts", "kvstore.adjacency_evictions",
    "gc.runs", "gc.transient_freed", "gc.index_freed", "continuous.closes",
    "continuous.rows", "oneshot.executions", "executor.executions",
    "temporal.executions", "temporal.version_entries", "client.timeouts",
    "client.retries", "serving.executions_saved", "serving.rejections",
    "sim.rdma_reads", "sim.messages"))


def read_counts(workload, since: Optional[dict] = None
                ) -> Dict[str, Optional[float]]:
    """Per-layer counts of a workload's program, read through its public
    statistics.  Called after set-up (the baseline) and again, with that
    baseline as ``since``, after the fixed prefix: :data:`CUMULATIVE`
    counters then read as the prefix's increase, everything else (sizes,
    hit rates, simulated percentiles, the state digest) as it stands.
    A statistic that a later change renamed or removed reads ``None``."""
    from repro.chaos.state import digest_sha256, engine_state_digest
    from repro.core.stats import collect_stats

    engine = workload.engine
    stats = collect_stats(engine)
    caches = stats.caches
    handles = list(engine.continuous.queries.values())
    closes_ms = [r.latency_ms for h in handles for r in h.executions]
    per_node: Dict[int, int] = defaultdict(int)
    for dispatcher in engine.dispatchers.values():
        for node, n in dispatcher.tuples_routed.items():
            per_node[node] += n
    pool = workload.serving.proxies if workload.serving else workload.pool
    proxies = pool.proxies if pool else []
    temporal = engine.temporal.records
    serving = workload.serving.snapshot() if workload.serving else None
    sim_oneshot = workload.tally.sim_oneshot_ms
    readers: Dict[str, Callable] = {
        "adaptor.tuples": lambda: sum(
            r.num_tuples for r in engine.injection_records),
        "dispatcher.partition_skew": lambda: (
            max(per_node.values()) * len(per_node) / sum(per_node.values())
            if per_node else None),
        "injector.inserts": lambda: stats.tuples_injected,
        "kvstore.entries": lambda: stats.store_entries,
        "kvstore.bytes": lambda: stats.store_bytes,
        "kvstore.adjacency_hit_rate": lambda: _ratio(
            caches.adjacency_hits, caches.adjacency_misses),
        "kvstore.adjacency_evictions": lambda: caches.adjacency_evictions,
        "stream_index.slices": lambda: sum(
            s.index_slices for s in stats.streams),
        "stream_index.bytes": lambda: sum(
            s.index_bytes for s in stats.streams),
        "stream_index.window_hit_rate": lambda: _ratio(
            caches.window_hits, caches.window_misses),
        "stream_index.window_delta_rate": lambda: _ratio(
            caches.window_delta_hits, caches.window_delta_misses),
        "coordinator.stable_sn": lambda: stats.stable_sn,
        "gc.runs": lambda: stats.gc_runs,
        "gc.transient_freed": lambda: stats.gc_transient_freed,
        "gc.index_freed": lambda: stats.gc_index_freed,
        "continuous.closes": lambda: len(closes_ms),
        "continuous.rows": lambda: sum(
            len(r.result.rows) for h in handles for r in h.executions),
        "oneshot.executions": lambda: caches.plan_hits + caches.plan_misses,
        "oneshot.plan_hit_rate": lambda: _ratio(
            caches.plan_hits, caches.plan_misses),
        "executor.executions": lambda: (
            caches.batch_executions + caches.row_executions),
        "executor.batch_share": lambda: _ratio(
            caches.batch_executions, caches.row_executions),
        "temporal.executions": lambda: len(temporal),
        "temporal.plan_hit_rate": lambda: _ratio(
            caches.temporal_plan_hits, caches.temporal_plan_misses),
        "temporal.version_entries": lambda: sum(
            r.version_entries for r in temporal),
        "temporal.max_chain_depth": lambda: max(
            (r.max_chain_depth for r in temporal), default=0),
        "client.procedure_hit_rate": lambda: _ratio(
            sum(p.library.cache.hits for p in proxies),
            sum(p.library.cache.misses for p in proxies)),
        "client.procedures_cached": lambda: sum(
            len(p.library.cache) for p in proxies),
        "client.timeouts": lambda: sum(p.stats.timeouts for p in proxies),
        "client.retries": lambda: sum(p.stats.retries for p in proxies),
        "serving.sharing_ratio": lambda: serving and serving.sharing_ratio,
        "serving.executions_saved": lambda: (
            serving and serving.executions_saved),
        "serving.rejections": lambda: serving and (
            serving.oneshots_rejected + serving.registrations_rejected),
        "sim.close_ms_p50": lambda: percentile(closes_ms, 50),
        "sim.close_ms_p99": lambda: percentile(closes_ms, 99),
        "sim.oneshot_ms_p50": lambda: percentile(sim_oneshot, 50),
        "sim.oneshot_ms_p99": lambda: percentile(sim_oneshot, 99),
        "sim.inject_ms_mean": lambda: stats.mean_injection_ms,
        "sim.rdma_reads": lambda: stats.rdma_reads,
        "sim.messages": lambda: stats.messages,
        # 48 bits of the state digest: exact in a JSON number.
        "sim.state_digest": lambda: since and int(
            digest_sha256(engine_state_digest(engine))[:12], 16),
    }
    out: Dict[str, Optional[float]] = {}
    for name, read in readers.items():
        try:
            out[name] = read()
            if since and name in CUMULATIVE and out[name] is not None:
                out[name] -= since[name] or 0
        except (AttributeError, KeyError, TypeError):
            out[name] = None
    return out
