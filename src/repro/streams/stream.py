"""Stream schemas and batches.

A stream carries timed tuples; its *schema* declares which predicates are
**timing** data (meaningful only within a window, swept after expiry — e.g.
GPS positions) and which are **timeless** (facts to be absorbed into the
knowledge base — e.g. posts and likes).  The Adaptor uses this
classification to route tuples to the transient store or the persistent
store (§4.1).

Batches follow the paper's mini-batch model: the Adaptor groups tuples by
fixed time intervals; batch *k* (1-based) of a stream covers source
timestamps in ``[start + (k-1)*interval, start + k*interval)``.  The engine
takes only batches cut from ``start = 0`` at its own interval
(:func:`repro.streams.window.batch_span`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List

from repro.errors import StreamError
from repro.rdf.terms import TimedTuple


@dataclass(frozen=True)
class StreamSchema:
    """Static description of one stream.

    Attributes
    ----------
    name:
        Stream name as referenced by ``FROM``/``GRAPH`` clauses.
    timing_predicates:
        Predicates whose tuples are timing data (transient store); all
        other predicates are timeless (persistent store + stream index).
    """

    name: str
    timing_predicates: FrozenSet[str] = frozenset()

    def is_timing(self, predicate: str) -> bool:
        return predicate in self.timing_predicates


@dataclass
class StreamBatch:
    """One mini-batch of a stream: all tuples of one time interval."""

    stream: str
    batch_no: int
    start_ms: int
    end_ms: int
    tuples: List[TimedTuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_no < 1:
            raise StreamError(f"batch numbers are 1-based, got {self.batch_no}")
        if self.end_ms <= self.start_ms:
            raise StreamError(
                f"empty batch interval: [{self.start_ms}, {self.end_ms})")
        for tup in self.tuples:
            self._check_tuple(tup)

    def _check_tuple(self, tup: TimedTuple) -> None:
        if not self.start_ms <= tup.timestamp_ms < self.end_ms:
            raise StreamError(
                f"tuple {tup} outside batch interval "
                f"[{self.start_ms}, {self.end_ms})")

    def add(self, tup: TimedTuple) -> None:
        self._check_tuple(tup)
        self.tuples.append(tup)

    def __len__(self) -> int:
        return len(self.tuples)


def batch_tuples(stream: str, tuples: Iterable[TimedTuple], start_ms: int,
                 interval_ms: int) -> List[StreamBatch]:
    """Group timestamp-ordered tuples into consecutive batches.

    Produces every batch from #1 up to the batch containing the last tuple
    (intermediate empty batches included, so batch numbering always tracks
    time).  Raises on out-of-order timestamps: C-SPARQL's time model
    assumes monotonically non-decreasing timestamps per stream.
    """
    if interval_ms <= 0:
        raise StreamError(f"batch interval must be positive: {interval_ms}")
    batches: List[StreamBatch] = []

    def batch_for(no: int) -> StreamBatch:
        while len(batches) < no:
            k = len(batches) + 1
            batches.append(StreamBatch(
                stream=stream, batch_no=k,
                start_ms=start_ms + (k - 1) * interval_ms,
                end_ms=start_ms + k * interval_ms))
        return batches[no - 1]

    previous_ms = None
    for tup in tuples:
        if tup.timestamp_ms < start_ms:
            raise StreamError(
                f"tuple {tup} precedes stream start {start_ms}")
        if previous_ms is not None and tup.timestamp_ms < previous_ms:
            raise StreamError(
                f"out-of-order timestamp: {tup.timestamp_ms} after "
                f"{previous_ms} (stream {stream})")
        previous_ms = tup.timestamp_ms
        number = (tup.timestamp_ms - start_ms) // interval_ms + 1
        batch_for(number).add(tup)
    return batches
