"""CSPARQL-engine: Esper window scans + a Jena triple store, single node.

The de-facto reference implementation of C-SPARQL (§2.3) splits each
continuous query into a streaming part (run by Esper over its window
buffers) and a stored part (run by Jena), then joins the two result sets.
It is single-node and executes queries sequentially, so its throughput is
the reciprocal of its latency (§6.6).  Per the paper's setup, the stored
dataset is trimmed to the triples the queries can touch ("CSPARQL-engine
has limited capacity for processing stored data").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.jena import JenaStore
from repro.baselines.relational import (Row, WindowBuffer, finalize,
                                        hash_join, left_join, project,
                                        scan_join, scan_pattern, window_rows)
from repro.errors import UnsupportedOperationError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import Query, TriplePattern
from repro.streams.stream import StreamBatch


class CSparqlEngine:
    """The Esper+Jena composite, with its fixed interpretive overhead."""

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost if cost is not None else CostModel()
        self.strings = StringServer()
        self.store = JenaStore(self.strings, self.cost)
        self.buffers: Dict[str, WindowBuffer] = {}

    # -- data ------------------------------------------------------------
    def load_static(self, triples: Iterable[Triple]) -> int:
        return self.store.load(triples)

    def ingest(self, batch: StreamBatch) -> None:
        self.buffers.setdefault(batch.stream, WindowBuffer(batch.stream)) \
            .extend(self.strings.encode_columns(batch.tuples))

    # -- execution ------------------------------------------------------------
    def execute_continuous(self, query: Query, close_ms: int,
                           meter: Optional[LatencyMeter] = None
                           ) -> Tuple[List[tuple], LatencyMeter]:
        """One sequential window execution."""
        if meter is None:
            meter = LatencyMeter()
        meter.charge(self.cost.csparql_base_ns, category="base")

        # Esper side: scan + join every stream pattern over its window.
        stream_rows = scan_join(None, query.stream_patterns(),
                                self._esper_scan(query, close_ms, meter),
                                meter, self.cost, category="esper")

        # Jena side: evaluate stored patterns, seeded by the stream rows
        # when variables connect them (the engine pushes bindings down).
        stored_patterns = query.stored_patterns()
        if stored_patterns:
            seeds = stream_rows if stream_rows is not None else [{}]
            stored_rows = seeds
            for pattern in stored_patterns:
                stored_rows = self.store.match(pattern, stored_rows, meter)
            rows = stored_rows
        elif stream_rows is not None:
            rows = stream_rows
        else:
            # No mandatory patterns: a pure-UNION WHERE block starts from
            # the empty solution.
            rows = [{}] if not query.patterns else []

        for union in query.unions:
            branch_tables: List[Row] = []
            for branch in union:
                branch_tables.extend(
                    self._evaluate_group(query, branch, close_ms, meter))
            rows = hash_join(rows, branch_tables, meter, self.cost)
        for group in query.optionals:
            group_rows = self._evaluate_group(query, group, close_ms, meter)
            rows = left_join(rows, group_rows, meter, self.cost)
        return finalize(rows, query, self.strings, meter,
                        self.cost), meter

    def _esper_scan(self, query: Query, close_ms: int,
                    meter: LatencyMeter):
        """Esper's scan of one stream pattern over its window."""
        def scan(pattern: TriplePattern) -> List[Row]:
            return scan_pattern(
                window_rows(self.buffers, query, pattern, close_ms),
                pattern, self.strings, meter, self.cost.csparql_tuple_ns,
                self.cost, category="esper")
        return scan

    def _evaluate_group(self, query: Query, group, close_ms: int,
                        meter: LatencyMeter) -> List[Row]:
        """Evaluate one OPTIONAL group independently (Esper + Jena)."""
        esper = self._esper_scan(query, close_ms, meter)
        rows: Optional[List[Row]] = None
        for pattern in group:
            if pattern.graph in query.windows:
                rows = scan_join(rows, [pattern], esper, meter, self.cost,
                                 category="esper")
            else:
                rows = self.store.match(pattern,
                                        rows if rows is not None else [{}],
                                        meter)
        return rows if rows is not None else []

    def execute_oneshot(self, query: Query,
                        meter: Optional[LatencyMeter] = None
                        ) -> Tuple[List[tuple], LatencyMeter]:
        """One-shot query over the (static) Jena store."""
        if query.is_continuous:
            raise UnsupportedOperationError(
                "one-shot path cannot take stream windows")
        if meter is None:
            meter = LatencyMeter()
        meter.charge(self.cost.csparql_base_ns, category="base")
        rows: List[Row] = [{}]
        for pattern in query.patterns:
            rows = self.store.match(pattern, rows, meter)
        return project(rows, query.projected(), meter, self.cost), meter
