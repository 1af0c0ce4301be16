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

A stream is four columns (:class:`~repro.rdf.terms.TimedColumns`), and
it is cut into batches in one pass over its ``ts`` column
(:class:`BatchCut`): the order is checked once on the column itself,
and batch *k* is the four columns' slices between two ``bisect_left``
offsets.  A source slices each batch when it delivers it;
:func:`batch_tuples` slices them all at once.  No tuple is ever added to
a batch one at a time: a :class:`StreamBatch` is built whole, and
checked against its span by the smallest and largest of its ``ts``
unless a cut made it (its slices lie in their spans by construction).

>>> stamps = [5, 10, 10, 31]
>>> tuples = TimedColumns(["a"] * 4, ["p"] * 4, ["b"] * 4, stamps)
>>> cut = BatchCut("S", tuples, 0, 10)
>>> len(cut), cut.offsets
(4, [0, 1, 3, 3, 4])
>>> [(b.batch_no, len(b)) for b in batch_tuples("S", tuples, 0, 10)]
[(1, 1), (2, 2), (3, 0), (4, 1)]
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count
from operator import lt
from typing import FrozenSet, List

from repro.errors import StreamError
from repro.rdf.terms import TimedColumns


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


def _row_text(tuples: TimedColumns, i: int) -> str:
    """Row ``i`` as a refusal names it: ``<s, p, o> @ts``."""
    return (f"<{tuples.s[i]}, {tuples.p[i]}, {tuples.o[i]}> "
            f"@{tuples.ts[i]}")


@dataclass
class StreamBatch:
    """One mini-batch of a stream: all tuples of one time interval, as
    four columns.

    The constructor checks the tuples against the span once, by the
    smallest and largest of their ``ts``; a batch with a tuple outside
    ``[start_ms, end_ms)`` is refused whole with :class:`StreamError`
    naming the first such tuple.  (:meth:`BatchCut.batch` hands over
    slices that lie in their span by construction.)
    """

    stream: str
    batch_no: int
    start_ms: int
    end_ms: int
    tuples: TimedColumns = field(default_factory=TimedColumns)

    def __post_init__(self) -> None:
        if self.batch_no < 1:
            raise StreamError(f"batch numbers are 1-based, got {self.batch_no}")
        if self.end_ms <= self.start_ms:
            raise StreamError(
                f"empty batch interval: [{self.start_ms}, {self.end_ms})")
        stamps = self.tuples.ts
        if not stamps:
            return
        if min(stamps) < self.start_ms or max(stamps) >= self.end_ms:
            outside = next(i for i, ts in enumerate(stamps)
                           if not self.start_ms <= ts < self.end_ms)
            raise StreamError(
                f"tuple {_row_text(self.tuples, outside)} outside batch "
                f"interval [{self.start_ms}, {self.end_ms})")

    def __len__(self) -> int:
        return len(self.tuples)


class BatchCut:
    """A stream's timestamp-ordered columns cut into consecutive batches.

    Batch *k* (1-based) covers ``[start + (k-1)*interval, start +
    k*interval)`` and holds ``tuples[offsets[k-1]:offsets[k]]``: every
    batch from #1 up to the one holding the last tuple, empty ones
    included, so batch numbering always tracks time.  The cut is one
    pass over the ``ts`` column itself: an order check, then one
    ``bisect_left`` per batch boundary; only the columns (not copied)
    and the ``len(self) + 1`` offsets are kept, and :meth:`batch` builds
    a batch when it is asked for.

    Raises :class:`StreamError` on a non-positive interval, a tuple
    before ``start_ms`` or a timestamp lower than its predecessor's
    (C-SPARQL's time model assumes monotonically non-decreasing
    timestamps per stream), naming the first offending tuple.
    """

    __slots__ = ("stream", "tuples", "offsets", "start_ms", "interval_ms")

    def __init__(self, stream: str, tuples: TimedColumns, start_ms: int,
                 interval_ms: int):
        if interval_ms <= 0:
            raise StreamError(
                f"batch interval must be positive: {interval_ms}")
        self.stream = stream
        self.tuples = tuples
        self.start_ms = start_ms
        self.interval_ms = interval_ms
        stamps = tuples.ts
        if not stamps:
            self.offsets = [0]
            return
        # Each stamp against the one before it (the first against the
        # stream start): the first one lower is the first bad tuple.
        bad = next(compress(count(), map(lt, stamps,
                                         chain((start_ms,), stamps))), None)
        if bad is not None:
            if stamps[bad] < start_ms:
                raise StreamError(
                    f"tuple {_row_text(tuples, bad)} precedes stream start "
                    f"{start_ms}")
            raise StreamError(
                f"out-of-order timestamp: {stamps[bad]} after "
                f"{stamps[bad - 1]} (stream {stream})")
        last = (stamps[-1] - start_ms) // interval_ms + 1
        self.offsets = list(map(partial(bisect_left, stamps), range(
            start_ms, start_ms + last * interval_ms + 1, interval_ms)))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def batch(self, batch_no: int) -> StreamBatch:
        """Batch #``batch_no`` (``1 <= batch_no <= len(self)``)."""
        start = self.start_ms + (batch_no - 1) * self.interval_ms
        batch = StreamBatch(self.stream, batch_no, start,
                            start + self.interval_ms)
        # In its span by construction (the cut checked every stamp once),
        # so a source's delivery pays no second pass over the stamps.
        batch.tuples = \
            self.tuples[self.offsets[batch_no - 1]:self.offsets[batch_no]]
        return batch


def batch_tuples(stream: str, tuples: TimedColumns, start_ms: int,
                 interval_ms: int) -> List[StreamBatch]:
    """Cut a stream's timestamp-ordered columns into consecutive batches,
    all at once.

    The same cut :class:`BatchCut` makes (and the same refusals); a
    :class:`~repro.streams.source.StreamSource` builds each batch only
    when it is delivered instead.
    """
    cut = BatchCut(stream, tuples, start_ms, interval_ms)
    return list(map(cut.batch, range(1, len(cut) + 1)))
