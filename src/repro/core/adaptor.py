"""The Adaptor: batching and timing/timeless classification.

The Adaptor sits at the entrance of the execution flow (Fig. 5b): it groups
incoming tuples into mini-batches (done upstream by
:func:`repro.streams.stream.batch_tuples`), converts strings to IDs via the
string server, and classifies each tuple as *timing* or *timeless* according
to the stream's schema so the Dispatcher/Injector can route it to the right
store.

The batch leaves here as ID columns (:class:`EncodedColumns`): it is
encoded in one :meth:`StringServer.encode_columns` call, and the
timing/timeless decision is made once per distinct predicate of the
batch, a mixed batch being split with :meth:`EncodedColumns.take`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import CostModel, LatencyMeter
from repro.streams.stream import StreamBatch, StreamSchema


@dataclass
class AdaptedBatch:
    """One mini-batch after adaptation: encoded and classified."""

    stream: str
    batch_no: int
    start_ms: int
    end_ms: int
    timeless: EncodedColumns = field(default_factory=EncodedColumns)
    timing: EncodedColumns = field(default_factory=EncodedColumns)

    @property
    def num_tuples(self) -> int:
        return len(self.timeless) + len(self.timing)


class Adaptor:
    """Adapts one stream's raw batches for injection.

    Parameters
    ----------
    schema:
        The stream schema (name + timing predicates).
    strings:
        Shared string server used to encode terms.
    """

    def __init__(self, schema: StreamSchema, strings: StringServer,
                 cost: Optional[CostModel] = None):
        self.schema = schema
        self.strings = strings
        self.cost = cost if cost is not None else CostModel()
        #: predicate eid -> is-timing memo (schemas never reclassify, and
        #: the string server never reassigns an eid).
        self._timing_memo: Dict[int, bool] = {}

    def adapt(self, batch: StreamBatch,
              meter: Optional[LatencyMeter] = None) -> AdaptedBatch:
        """Encode and classify one batch."""
        adapted = AdaptedBatch(
            stream=batch.stream, batch_no=batch.batch_no,
            start_ms=batch.start_ms, end_ms=batch.end_ms)
        tuples = batch.tuples
        if meter is not None and tuples:
            # One aggregated scan charge for the whole batch.
            meter.charge(self.cost.scan_entry_ns, times=len(tuples),
                         category="adapt")
        columns = self.strings.encode_columns(tuples)
        predicates = set(columns.p)
        timing_eids = {eid for eid in predicates if self._is_timing(eid)}
        if not timing_eids:
            adapted.timeless = columns
        elif timing_eids == predicates:
            adapted.timing = columns
        else:
            adapted.timing = columns.take(
                [i for i, eid in enumerate(columns.p) if eid in timing_eids])
            adapted.timeless = columns.take(
                [i for i, eid in enumerate(columns.p)
                 if eid not in timing_eids])
        return adapted

    def _is_timing(self, eid: int) -> bool:
        verdict = self._timing_memo.get(eid)
        if verdict is None:
            verdict = self._timing_memo[eid] = self.schema.is_timing(
                self.strings.predicate_name(eid))
        return verdict
