"""RDF terms, triples and timed stream tuples.

The linked data is represented as RDF triples ``<subject, predicate,
object>``.  Streaming data arrives as *timed tuples*: a triple plus its
source timestamp, e.g. ``<Logan, po, T-15> @ 0802`` (Fig. 1 of the paper).
Terms are plain strings at the API boundary; internally every term is
converted to a compact integer ID by the :class:`~repro.rdf.StringServer`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Triple(NamedTuple):
    """One RDF triple of string terms."""

    subject: str
    predicate: str
    object: str

    def __str__(self) -> str:
        return f"<{self.subject}, {self.predicate}, {self.object}>"


class TimedTuple(NamedTuple):
    """One stream tuple: a triple with its source timestamp (simulated ms)."""

    triple: Triple
    timestamp_ms: int

    def __str__(self) -> str:
        return f"{self.triple} @{self.timestamp_ms}"


class EncodedColumns:
    """A batch of encoded timed tuples as four parallel columns.

    ``s``, ``p``, ``o`` and ``ts`` hold subject vids, predicate eids,
    object vids and timestamps, row ``i`` of each being tuple ``i`` in
    arrival order.  This is the one encoded shape of data: the write
    path carries stream batches from the adaptor to the shard and the
    static data (timestamps 0) from the string server to the shard, the
    durable layer keeps both, and the relational baselines buffer and
    scan their tables in it.  Columns are never mutated once built, so any
    number of holders may share one (the single-node dispatcher hands
    the same columns to a batch's out and in halves).

    >>> cols = EncodedColumns([1, 2, 3], [7, 7, 8], [4, 5, 6], [0, 1, 2])
    >>> len(cols), cols.take([2, 0]).s
    (3, [3, 1])
    """

    __slots__ = ("s", "p", "o", "ts")

    def __init__(self, s: Optional[List[int]] = None,
                 p: Optional[List[int]] = None,
                 o: Optional[List[int]] = None,
                 ts: Optional[List[int]] = None) -> None:
        self.s = [] if s is None else s
        self.p = [] if p is None else p
        self.o = [] if o is None else o
        self.ts = [] if ts is None else ts

    def __len__(self) -> int:
        return len(self.s)

    def take(self, indices: List[int]) -> "EncodedColumns":
        """The rows at ``indices``, in that order, as new columns."""
        return EncodedColumns(*([column[i] for i in indices]
                                for column in (self.s, self.p, self.o,
                                               self.ts)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedColumns):
            return NotImplemented
        return (self.s == other.s and self.p == other.p
                and self.o == other.o and self.ts == other.ts)
