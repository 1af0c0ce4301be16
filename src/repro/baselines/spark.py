"""A Spark-Streaming-like engine: mini-batch relational joins over RDDs.

Spark Streaming (§6.2) represents both streaming and stored data as
in-memory DataFrames and runs each continuous query as Spark SQL: one
whole-table scan per triple pattern plus hash joins, under a fixed
per-stage scheduling overhead.  The stored DataFrame scan touches every
row regardless of the pattern's selectivity — the design choice that keeps
its latency in the hundreds of milliseconds while Wukong+S's exploration
touches only the data the query needs.

Result correctness is preserved (evaluation uses predicate indexes under
the hood) while costs are charged for the scans the engine would really
perform (``modeled_rows``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.relational import (Row, WindowBuffer, finalize,
                                        hash_join, left_join,
                                        load_by_predicate, scan_join,
                                        scan_pattern, window_rows)
from repro.errors import UnsupportedOperationError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns, Triple
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import Query, TriplePattern
from repro.streams.stream import StreamBatch


class SparkStreamingEngine:
    """Mini-batch relational execution over streaming + stored DataFrames."""

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost if cost is not None else CostModel()
        self.task_ns = self.cost.spark_task_ns
        self.row_ns = self.cost.spark_row_ns
        self.strings = StringServer()
        #: The stored DataFrame, predicate-indexed for fast evaluation.
        self.stored: Dict[int, WindowBuffer] = {}
        self.buffers: Dict[str, WindowBuffer] = {}

    # -- data ------------------------------------------------------------
    def load_static(self, triples: Iterable[Triple]) -> int:
        return load_by_predicate(self.stored, self.strings, triples)

    def ingest(self, batch: StreamBatch) -> None:
        self.buffers.setdefault(batch.stream, WindowBuffer(batch.stream)) \
            .extend(self.strings.encode_columns(batch.tuples))

    @property
    def num_stored(self) -> int:
        """Rows of the stored DataFrame."""
        return sum(map(len, self.stored.values()))

    # -- execution ------------------------------------------------------------
    def execute_continuous(self, query: Query, close_ms: int,
                           meter: Optional[LatencyMeter] = None
                           ) -> Tuple[List[tuple], LatencyMeter]:
        """One mini-batch trigger of the query."""
        if meter is None:
            meter = LatencyMeter()

        def scan(pattern: TriplePattern) -> List[Row]:
            return self._scan(query, pattern, close_ms, meter)

        def group_rows(patterns) -> List[Row]:
            return scan_join(None, patterns, scan, meter, self.cost) or []

        rows = scan_join(None, query.patterns, scan, meter, self.cost)
        for union in query.unions:
            branch_tables = [row for branch in union
                             for row in group_rows(branch)]
            rows = branch_tables if rows is None else \
                hash_join(rows, branch_tables, meter, self.cost)
        for group in query.optionals:
            rows = left_join(rows or [], group_rows(group), meter,
                             self.cost)
        return finalize(rows or [], query, self.strings, meter,
                        self.cost), meter

    def _window_rows_charged(self, window: EncodedColumns) -> int:
        """Rows a window scan pays for: the window itself."""
        return len(window)

    def _scan(self, query: Query, pattern: TriplePattern, close_ms: int,
              meter: LatencyMeter) -> List[Row]:
        """One Spark SQL stage: scan a DataFrame by one pattern."""
        meter.charge(self.task_ns, category="scheduling")
        if pattern.graph in query.windows:
            table = window_rows(self.buffers, query, pattern, close_ms)
            charged = self._window_rows_charged(table)
        else:
            stored = self.stored.get(
                self.strings.lookup_predicate(pattern.predicate))
            table = stored.columns if stored is not None \
                else EncodedColumns()
            charged = self.num_stored
        return scan_pattern(table, pattern, self.strings, meter,
                            self.row_ns, self.cost, modeled_rows=charged,
                            category="scan")

    def execute_oneshot(self, query: Query,
                        meter: Optional[LatencyMeter] = None
                        ) -> Tuple[List[tuple], LatencyMeter]:
        """A Spark SQL query over the stored DataFrame only."""
        if query.is_continuous:
            raise UnsupportedOperationError(
                "one-shot path cannot take stream windows")
        return self.execute_continuous(query, close_ms=0, meter=meter)
