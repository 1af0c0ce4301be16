"""The Adaptor: batching, filtering and timing/timeless classification.

The Adaptor sits at the entrance of the execution flow (Fig. 5b): it groups
incoming tuples into mini-batches (done upstream by
:func:`repro.streams.stream.batch_tuples`), discards tuples no registered
query can ever touch, converts strings to IDs via the string server, and
classifies each tuple as *timing* or *timeless* according to the stream's
schema so the Dispatcher/Injector can route it to the right store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedTuple
from repro.sim.cost import CostModel, LatencyMeter
from repro.streams.stream import StreamBatch, StreamSchema


@dataclass
class AdaptedBatch:
    """One mini-batch after adaptation: encoded and classified."""

    stream: str
    batch_no: int
    start_ms: int
    end_ms: int
    timeless: List[EncodedTuple] = field(default_factory=list)
    timing: List[EncodedTuple] = field(default_factory=list)
    discarded: int = 0

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
    relevant_predicates:
        When given, tuples whose predicate is not in the set are discarded
        (the paper's "discard unrelated tuples" step).  None keeps all.
    """

    def __init__(self, schema: StreamSchema, strings: StringServer,
                 cost: Optional[CostModel] = None,
                 relevant_predicates: Optional[Set[str]] = None):
        self.schema = schema
        self.strings = strings
        self.cost = cost if cost is not None else CostModel()
        self.relevant_predicates = relevant_predicates
        #: predicate -> is-timing memo (schemas never reclassify).
        self._timing_memo: Dict[str, bool] = {}

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
        relevant = self.relevant_predicates
        encode = self.strings.encode_tuple
        timing_memo = self._timing_memo
        memo_get = timing_memo.get
        append_timing = adapted.timing.append
        append_timeless = adapted.timeless.append
        discarded = 0
        for tup in tuples:
            predicate = tup.triple.predicate
            if relevant is not None and predicate not in relevant:
                discarded += 1
                continue
            verdict = memo_get(predicate)
            if verdict is None:
                verdict = timing_memo[predicate] = \
                    self.schema.is_timing(predicate)
            if verdict:
                append_timing(encode(tup))
            else:
                append_timeless(encode(tup))
        adapted.discarded = discarded
        return adapted
