"""Label-aware metrics: counters, gauges, simulated-time histograms.

A :class:`MetricsRegistry` holds what only observability records: the
engine's hot paths *push* latency observations (injection batches,
continuous window closes, one-shot and interval executions) into
simulated-time histograms, and the re-plan monitor pushes its per-query
decision counters and cost gauges, whenever a registry is attached via
``engine.enable_observability()``.  The always-on counters the
subsystems keep themselves (caches, GC, fabric, proxies, the serving
layer) are not copied here: ``repro.core.stats.collect_stats`` is the
one pull over them, and each stays readable on its owner.

Everything is deterministic: metric keys are ``name{label=value,...}``
with sorted labels, histograms bucket simulated nanoseconds on a fixed
ladder, and :meth:`MetricsRegistry.snapshot` returns canonically sorted
JSON-safe dicts — two runs of the same workload snapshot identically.

Like the tracer, the registry never touches a LatencyMeter: observing a
latency reads ``meter.ns``; it cannot move simulated time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

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

