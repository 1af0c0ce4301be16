"""Interval semantics shared by the SPARQL-T kernels.

Quintuple patterns bind ``?ts`` to a matched entry's insertion snapshot
and ``?te`` to :data:`~repro.sparql.ast.OPEN_END` (the store is
append-only, so every visible entry is still live).  This module holds
what is true of one binding regardless of how bindings are laid out —
the five half-open interval relations (:func:`interval_op_holds`) and
the version-chain traversal counters — and :mod:`repro.temporal.kernels`
applies it over columns.  (Ordinary FILTERs over endpoint variables are
:func:`repro.sparql.evaluate.filter_matches`'s interval-variable rule.)

Compaction note: bounded scalarization relabels SNs at or below the GC
frontier to the base snapshot, coarsening ``?ts`` for pre-frontier
entries.  Queries whose interval conditions need exact pre-frontier
history must run with scalarization disabled (or a larger
``keep_snapshots``); the snapshot pin taken by the engine guarantees
the frontier cannot move past the read snapshot *mid-query*.
"""

from __future__ import annotations

from repro.errors import PlanError


def interval_op_holds(op: str, s1: int, e1: int, s2: int, e2: int) -> bool:
    """Whether ``[s1, e1) op [s2, e2)`` holds (half-open semantics).

    ``OVERLAPS``: the intervals share at least one snapshot.
    ``DURING``: the left interval is contained in the right.
    ``BEFORE`` / ``AFTER``: the left ends at-or-before the right starts /
    starts at-or-after the right ends.  ``STARTS``: equal lower endpoints.
    """
    if op == "OVERLAPS":
        return s1 < e2 and s2 < e1
    if op == "DURING":
        return s1 >= s2 and e1 <= e2
    if op == "BEFORE":
        return e1 <= s2
    if op == "AFTER":
        return s1 >= e2
    if op == "STARTS":
        return s1 == s2
    raise PlanError(f"unsupported interval operator: {op}")


class IntervalCounters:
    """Version-chain traversal statistics of one interval execution."""

    __slots__ = ("snapshot_reads", "version_entries", "max_chain_depth")

    def __init__(self) -> None:
        #: Version-carrying store probes issued (one per key read).
        self.snapshot_reads = 0
        #: Total version-chain entries traversed across all probes.
        self.version_entries = 0
        #: Longest single version chain traversed.
        self.max_chain_depth = 0

    def record(self, entries: int) -> None:
        self.snapshot_reads += 1
        self.version_entries += entries
        if entries > self.max_chain_depth:
            self.max_chain_depth = entries
