"""repro.obs — deterministic observability for the simulated engine.

Three layers (see DESIGN.md §6, "Observability model"):

* **spans** (:mod:`repro.obs.trace`): hierarchical trace spans keyed to
  the simulated clock; enter/exit carry LatencyMeter readings, so the
  trace is a pure function of the simulation and costs zero simulated
  time.
* **metrics** (:mod:`repro.obs.metrics`): a label-aware registry of
  counters, gauges and simulated-time histograms fed by the executor,
  the kvstore caches, the stream index, proxy retries and GC.
* **analysis / export** (:mod:`repro.obs.analysis`,
  :mod:`repro.obs.export`): Chrome trace-event JSON export, fork-join
  critical-path reconstruction (integer-equal to the meter's latency),
  and flame-style text rendering.

Enable on an engine with ``engine.enable_observability()`` (or
``EngineConfig(tracing=True)``); everything is off by default.  An
enabled tracer records every activity; the trace-off hot paths pay one
attribute check per site.
"""

from repro.obs.analysis import CriticalPath, PathSegment, critical_path, \
    render_flame
from repro.obs.export import chrome_trace, spans_from_chrome, \
    validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, \
    SIM_NS_BUCKETS, collect_metrics
from repro.obs.trace import Activity, ParallelGroup, Span, Tracer

__all__ = [
    "Activity", "Counter", "CriticalPath", "Gauge", "Histogram",
    "MetricsRegistry", "ParallelGroup", "PathSegment", "SIM_NS_BUCKETS",
    "Span", "Tracer", "chrome_trace", "collect_metrics", "critical_path",
    "render_flame", "spans_from_chrome", "validate_chrome_trace",
    "write_chrome_trace",
]
