"""Window arithmetic for continuous queries.

A continuous query declares, per stream, a window ``[RANGE r STEP s]``.
The engine is *data-driven* (§4.3): an execution closing at time ``t``
needs every stream batch whose interval ends at or before ``t``, and reads
tuples with timestamps in ``[t - r, t)``.  The :class:`WindowPlanner` does
the bookkeeping that converts between execution times and batch numbers.

Every stream shares one batch geometry (§4.3): batch #k spans
``[(k-1)*i, k*i)`` for the engine's interval ``i``.  :func:`batch_span`
states it and :func:`batches_closed_by` inverts it; every batch-number
computation in the engine goes through the two, and the engine refuses a
delivered batch whose span breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import StreamError
from repro.sparql.ast import WindowSpec


def batch_span(batch_no: int, interval_ms: int) -> Tuple[int, int]:
    """Timestamp interval ``[start, end)`` of batch #``batch_no``."""
    return (batch_no - 1) * interval_ms, batch_no * interval_ms


def batches_closed_by(time_ms: int, interval_ms: int) -> int:
    """How many batches have spans ending at or before ``time_ms`` — the
    highest such batch number (0 before batch #1 closes)."""
    return max(0, time_ms) // interval_ms


@dataclass(frozen=True)
class WindowPlanner:
    """Batch/window math for one stream consumed by one query.

    Parameters
    ----------
    window:
        The query's window over this stream.
    batch_interval_ms:
        The Adaptor's mini-batch interval for the stream.
    """

    window: WindowSpec
    batch_interval_ms: int

    def __post_init__(self) -> None:
        if self.batch_interval_ms <= 0:
            raise StreamError(
                f"batch interval must be positive: {self.batch_interval_ms}")
        if self.window.step_ms % self.batch_interval_ms != 0:
            raise StreamError(
                f"window step {self.window.step_ms}ms must be a multiple of "
                f"the batch interval {self.batch_interval_ms}ms")

    def last_batch_needed(self, close_ms: int) -> int:
        """The highest batch number an execution closing at ``close_ms``
        needs: every batch whose span closes at or before it."""
        return batches_closed_by(close_ms, self.batch_interval_ms)

    def batch_range(self, close_ms: int) -> Tuple[int, int]:
        """Inclusive batch-number range ``(first, last)`` whose intervals
        overlap the window closing at ``close_ms`` (``first > last`` means
        the window is empty).

        Because the step is a whole number of batch intervals, consecutive
        closes slide both endpoints forward by ``step_ms /
        batch_interval_ms`` batches: each close drops that many expired
        batches from the front of the range and appends that many newly
        closed ones at the back.  The columnar window views
        (``core.stream_index.ColumnarSlice``) maintain their per-key
        columns incrementally off exactly this drop/extend delta.
        """
        window_start, window_end = self.window.span_at(close_ms)
        first = batches_closed_by(window_start, self.batch_interval_ms) + 1
        return first, self.last_batch_needed(window_end)
