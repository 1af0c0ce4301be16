"""A Structured-Streaming-like engine: queries over an unbounded table.

Structured Streaming (Table 4) models each stream as an ever-growing
unbounded table and re-runs the query on triggers.  Two consequences the
paper measures:

* every stream-pattern scan touches the whole unbounded table (all history,
  not just the window), so latency exceeds even Spark Streaming's and grows
  as the stream ages;
* joins between two streaming datasets are **unsupported** — queries with
  more than one stream pattern raise
  :class:`~repro.errors.UnsupportedOperationError` and appear as "x" in the
  reproduction of Table 4, exactly as in the paper.

Everything else is Spark Streaming's: the same DataFrames, loader, scans
and joins, at Structured Streaming's own per-stage and per-row prices.
The stream buffers are the unbounded tables (nothing ever evicts them).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.spark import SparkStreamingEngine
from repro.errors import UnsupportedOperationError
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import Query


class StructuredStreamingEngine(SparkStreamingEngine):
    """Trigger-based execution over unbounded tables."""

    def __init__(self, cost: Optional[CostModel] = None):
        super().__init__(cost)
        self.task_ns = self.cost.structured_task_ns
        self.row_ns = self.cost.structured_row_ns

    @property
    def unbounded_rows(self) -> int:
        """Total rows across the unbounded stream tables."""
        return sum(map(len, self.buffers.values()))

    def _window_rows_charged(self, window: EncodedColumns) -> int:
        """The scan really walks the whole unbounded table."""
        return self.unbounded_rows

    def execute_continuous(self, query: Query, close_ms: int,
                           meter: Optional[LatencyMeter] = None
                           ) -> Tuple[List[tuple], LatencyMeter]:
        """One trigger; raises for stream-stream joins."""
        if query.optionals or query.unions:
            raise UnsupportedOperationError(
                "Structured Streaming does not support OPTIONAL/UNION over "
                "streaming data")
        if len(query.stream_patterns()) > 1:
            raise UnsupportedOperationError(
                "Structured Streaming does not support joins between two "
                "streaming datasets")
        return super().execute_continuous(query, close_ms, meter)
