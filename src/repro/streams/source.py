"""Replayable stream sources (upstream backup).

The paper's fault-tolerance story assumes *upstream backup*: sources buffer
recently sent batches and replay them on request after a failure (§5).  A
:class:`StreamSource` wraps a batch supply with exactly that contract: the
engine acknowledges batches once they are covered by a durable checkpoint
(or, with no durable log to recover from, once they are injected), the
source trims its buffer up to the acknowledgement, and replay re-delivers
everything still buffered after a given batch number.

Raw tuples enter through :meth:`StreamSource.queue_tuples` as one
:class:`~repro.streams.stream.BatchCut` over the stream's columns, which
are kept as they are, not copied: the ``ts`` column is checked and cut
at batch offsets once, and each batch is sliced from the four columns
only when :meth:`StreamSource.next_batch` delivers it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional

from repro.errors import StreamError
from repro.rdf.terms import TimedColumns
from repro.streams.stream import BatchCut, StreamBatch, StreamSchema


class StreamSource:
    """One stream's producer with an upstream-backup buffer.

    Parameters
    ----------
    schema:
        The stream's schema (name + timing predicates).
    batches:
        Batches to queue up front (see :meth:`queue`); raw tuples are
        queued with :meth:`queue_tuples`.
    """

    def __init__(self, schema: StreamSchema,
                 batches: Iterable[StreamBatch] = ()):
        self.schema = schema
        #: Raw tuples queued but not yet delivered: batches
        #: ``_cut_next..len(_cut)`` of the cut, sliced on delivery.
        self._cut: Optional[BatchCut] = None
        self._cut_next = 1
        self._pending: Deque[StreamBatch] = deque()
        self._backup: Deque[StreamBatch] = deque()
        self._acked_through = 0
        self._last_queued = 0
        for batch in batches:
            self.queue(batch)

    # -- producing -------------------------------------------------------
    def queue(self, batch: StreamBatch) -> None:
        """Append one batch to the supply (must arrive in order)."""
        if batch.stream != self.schema.name:
            raise StreamError(
                f"batch for {batch.stream!r} queued on stream "
                f"{self.schema.name!r}")
        self._check_next(batch.batch_no)
        self._last_queued = batch.batch_no
        self._pending.append(batch)

    def _check_next(self, batch_no: int) -> None:
        if batch_no != self._last_queued + 1:
            raise StreamError(
                f"batches must be queued in order: got #{batch_no} "
                f"after #{self._last_queued}")

    def queue_tuples(self, tuples: TimedColumns, start_ms: int,
                     interval_ms: int) -> int:
        """Queue a stream's columns as batches #1.. of one cut (see
        :class:`~repro.streams.stream.BatchCut`); returns the number of
        batches.  The columns are held, not copied, and must not be
        mutated; no batch is built until it is delivered."""
        cut = BatchCut(self.schema.name, tuples, start_ms, interval_ms)
        if not cut:
            return 0
        self._check_next(1)  # so nothing was queued: ``_cut_next`` is 1
        self._cut = cut
        self._last_queued = len(cut)
        return len(cut)

    # -- consuming ---------------------------------------------------------
    def next_batch(self) -> Optional[StreamBatch]:
        """Deliver the next batch (also retained in the backup buffer)."""
        cut = self._cut
        if cut is not None:
            batch = cut.batch(self._cut_next)
            self._cut_next += 1
            if self._cut_next > len(cut):
                self._cut = None  # every tuple is in a delivered batch
        elif self._pending:
            batch = self._pending.popleft()
        else:
            return None
        self._backup.append(batch)
        return batch

    def drain(self) -> Iterator[StreamBatch]:
        """Deliver every remaining batch."""
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch

    @property
    def has_pending(self) -> bool:
        return self._cut is not None or bool(self._pending)

    # -- upstream backup ------------------------------------------------------
    def ack(self, batch_no: int) -> None:
        """Durable-checkpoint acknowledgement: trim backup through ``batch_no``."""
        if batch_no < self._acked_through:
            raise StreamError(
                f"acknowledgements must not regress: {batch_no} < "
                f"{self._acked_through}")
        self._acked_through = batch_no
        backup = self._backup
        while backup and backup[0].batch_no <= batch_no:
            backup.popleft()

    def replay(self, after_batch_no: int) -> List[StreamBatch]:
        """Batches delivered but newer than ``after_batch_no`` (for recovery).

        Raises if the request reaches below the acknowledged (trimmed)
        prefix: such data is gone by contract and must come from a
        checkpoint instead.
        """
        if after_batch_no < self._acked_through:
            raise StreamError(
                f"cannot replay from #{after_batch_no + 1}: batches through "
                f"#{self._acked_through} were acknowledged and trimmed")
        return [b for b in self._backup if b.batch_no > after_batch_no]

    @property
    def backup_size(self) -> int:
        return len(self._backup)

    @property
    def acked_through(self) -> int:
        """Highest batch number acknowledged (and trimmed from backup)."""
        return self._acked_through
