"""Experiment harness: engine builders, latency drivers, table formatting.

Every benchmark under ``benchmarks/`` composes these helpers: build the
system(s) under test, feed them the same generated workload, collect
simulated latencies, and print a paper-style table with the paper's
reported numbers alongside for shape comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.baselines.composite import CompositeEngine
from repro.baselines.csparql_engine import CSparqlEngine
from repro.baselines.spark import SparkStreamingEngine
from repro.baselines.structured import StructuredStreamingEngine
from repro.baselines.wukong_ext import WukongExtEngine
from repro.bench.metrics import median
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.terms import TimedTuple
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel
from repro.sparql.parser import parse_query
from repro.streams.source import StreamSource
from repro.streams.stream import StreamBatch, batch_tuples

#: Protocol-ish type for all bench generators (LSBench / CityBench).
Bench = object


# --------------------------------------------------------------------------
# Engine builders
# --------------------------------------------------------------------------

def build_wukongs(bench: Bench, num_nodes: int, duration_ms: int,
                  batch_interval_ms: int = 100,
                  rate_scale: Optional[float] = None,
                  use_rdma: bool = True,
                  fault_tolerance: bool = False,
                  scalarization: bool = True,
                  adaptive_replan: bool = False) -> WukongSEngine:
    """A Wukong+S engine loaded with the bench's static data and sources."""
    config = EngineConfig(
        num_nodes=num_nodes, use_rdma=use_rdma,
        batch_interval_ms=batch_interval_ms,
        fault_tolerance=fault_tolerance, scalarization=scalarization,
        adaptive_replan=adaptive_replan)
    engine = WukongSEngine(schemas=bench.schemas(), config=config)
    engine.load_static(bench.static_triples())
    if rate_scale is not None:
        streams = bench.generate_streams(duration_ms, rate_scale=rate_scale)
    else:
        streams = bench.generate_streams(duration_ms)
    for name, tuples in streams.items():
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(tuples, 0, batch_interval_ms)
        engine.attach_source(source)
    return engine


def stream_batches_for(bench: Bench, duration_ms: int,
                       batch_interval_ms: int = 100,
                       rate_scale: Optional[float] = None
                       ) -> List[StreamBatch]:
    """The same workload as loose batches, for feeding baseline engines."""
    if rate_scale is not None:
        streams = bench.generate_streams(duration_ms, rate_scale=rate_scale)
    else:
        streams = bench.generate_streams(duration_ms)
    batches: List[StreamBatch] = []
    for name, tuples in streams.items():
        batches.extend(batch_tuples(name, tuples, 0, batch_interval_ms))
    return batches


def feed_baseline(engine, bench: Bench, duration_ms: int,
                  batch_interval_ms: int = 100,
                  rate_scale: Optional[float] = None):
    """Load static data + ingest the whole workload into a baseline."""
    engine.load_static(bench.static_triples())
    for batch in stream_batches_for(bench, duration_ms, batch_interval_ms,
                                    rate_scale):
        engine.ingest(batch)
    return engine


# --------------------------------------------------------------------------
# Latency drivers
# --------------------------------------------------------------------------

def measure_wukongs(engine: WukongSEngine, query_texts: Dict[str, str],
                    duration_ms: int,
                    warmup_ms: int = 0) -> Dict[str, List[float]]:
    """Register queries, run the simulation, return per-query latencies.

    With ``warmup_ms``, the engine first absorbs that much stream history
    (injection only) before the queries are registered — used by
    experiments that compare against engines whose cost depends on the
    accumulated history (Table 4's Wukong/Ext).
    """
    if warmup_ms:
        engine.run_until(warmup_ms)
    handles = {}
    for name, text in query_texts.items():
        handles[name] = engine.register_continuous(text)
    engine.run_until(duration_ms)
    return {name: [rec.latency_ms for rec in handle.executions]
            for name, handle in handles.items()}


def measure_baseline(engine, query_texts: Dict[str, str],
                     close_times_ms: Sequence[int],
                     runner: Optional[Callable] = None
                     ) -> Dict[str, List[float]]:
    """Run each query at each window close time on a fed baseline.

    ``runner`` adapts engines whose ``execute_continuous`` returns
    different tuples; the default handles the (rows, meter[, extra])
    shapes used across this package.
    """
    results: Dict[str, List[float]] = {}
    for name, text in query_texts.items():
        query = parse_query(text)
        samples: List[float] = []
        for close_ms in close_times_ms:
            if runner is not None:
                samples.append(runner(engine, query, close_ms))
            else:
                out = engine.execute_continuous(query, close_ms)
                meter = out[1]
                samples.append(meter.ms)
        results[name] = samples
    return results


def median_of(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Median latency per query (empty sample lists collapse to nan)."""
    return {name: (median(values) if values else float("nan"))
            for name, values in samples.items()}


# --------------------------------------------------------------------------
# Table formatting
# --------------------------------------------------------------------------

def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 note: str = "") -> str:
    """A fixed-width table in the style of the paper's latency tables."""
    body = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[0])
                         for i, cell in enumerate(cells))

    out = [f"== {title} ==", line(headers),
           line(["-" * w for w in widths])]
    out.extend(line(row) for row in body)
    if note:
        out.append(note)
    return "\n".join(out)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN renders as the paper's unsupported mark
            return "x"
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)
