"""RDF terms, triples and timed stream columns.

The linked data is represented as RDF triples ``<subject, predicate,
object>``.  Streaming data arrives as *timed tuples*: a triple plus its
source timestamp, e.g. ``<Logan, po, T-15> @ 0802`` (Fig. 1 of the paper).
A stream holds its timed tuples as four parallel columns
(:class:`TimedColumns`), never as one object per tuple.  Terms are plain
strings at the API boundary; internally every term is converted to a
compact integer ID by the :class:`~repro.rdf.StringServer`, which turns
a stream's name columns into id columns (:class:`EncodedColumns`).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple


class Triple(NamedTuple):
    """One RDF triple of string terms."""

    subject: str
    predicate: str
    object: str

    def __str__(self) -> str:
        return f"<{self.subject}, {self.predicate}, {self.object}>"


class _Columns:
    """Four parallel columns ``s``, ``p``, ``o`` and ``ts``, row ``i`` of
    each being tuple ``i`` in arrival order.  Columns are never mutated
    once built, so any number of holders may share one."""

    __slots__ = ("s", "p", "o", "ts")

    def __init__(self, s: Optional[list] = None, p: Optional[list] = None,
                 o: Optional[list] = None,
                 ts: Optional[List[int]] = None) -> None:
        self.s = [] if s is None else s
        self.p = [] if p is None else p
        self.o = [] if o is None else o
        self.ts = [] if ts is None else ts

    def __len__(self) -> int:
        return len(self.s)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.s!r}, {self.p!r}, {self.o!r}, "
                f"{self.ts!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.s == other.s and self.p == other.p
                and self.o == other.o and self.ts == other.ts)


class TimedColumns(_Columns):
    """A stream's timed tuples as four parallel columns.

    ``s``, ``p`` and ``o`` hold subject, predicate and object names and
    ``ts`` the source timestamps (simulated ms).  This is the one shape
    of a stream before encoding: the generators and the parser build it
    column by column, a stream source cuts it into batches by bisecting
    ``ts``, a batch holds four slices of it, and the string server
    encodes its three name columns directly.

    Read as a sequence it is its rows as ``((s, p, o), ts)`` pairs, made
    lazily as it is iterated; a slice is the four columns sliced.

    >>> cols = TimedColumns(["Logan", "Erik"], ["po", "po"],
    ...                     ["T-15", "T-16"], [802, 903])
    >>> len(cols), list(cols[1:])
    (2, [(('Erik', 'po', 'T-16'), 903)])
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[Tuple[str, str, str], int]]:
        return zip(zip(self.s, self.p, self.o), self.ts)

    def __getitem__(self, rows: slice) -> "TimedColumns":
        if not isinstance(rows, slice):
            raise TypeError(
                f"TimedColumns are sliced, not indexed: {rows!r}")
        return TimedColumns(self.s[rows], self.p[rows], self.o[rows],
                            self.ts[rows])


class EncodedColumns(_Columns):
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

    __slots__ = ()

    def take(self, indices: List[int]) -> "EncodedColumns":
        """The rows at ``indices``, in that order, as new columns."""
        return EncodedColumns(*([column[i] for i in indices]
                                for column in (self.s, self.p, self.o,
                                               self.ts)))
