"""Interval semantics shared by the SPARQL-T kernels.

Quintuple patterns bind ``?ts`` to a matched entry's insertion snapshot
and ``?te`` to :data:`~repro.sparql.ast.OPEN_END` (the store is
append-only, so every visible entry is still live).  This module holds
what is true of one binding regardless of how bindings are laid out —
the five half-open interval relations (:func:`interval_op_holds`), the
ordinary-FILTER rules extended to interval variables
(:func:`_plain_filter_matches`) and the version-chain traversal
counters — and :mod:`repro.temporal.kernels` applies it over columns.

Compaction note: bounded scalarization relabels SNs at or below the GC
frontier to the base snapshot, coarsening ``?ts`` for pre-frontier
entries.  Queries whose interval conditions need exact pre-frontier
history must run with scalarization disabled (or a larger
``keep_snapshots``); the snapshot pin taken by the engine guarantees
the frontier cannot move past the read snapshot *mid-query*.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import PlanError
from repro.sparql.ast import FilterExpr, is_variable
from repro.sparql.evaluate import term_number

#: One binding row: graph variables map to vids, interval endpoint
#: variables map to snapshot numbers.
Row = Dict[str, int]


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


def _plain_filter_matches(expr: FilterExpr, row: Row,
                          interval_vars: Set[str],
                          name_of: Callable[[int], str],
                          resolve: Callable[[str], Optional[int]]) -> bool:
    """Ordinary FILTER semantics extended to interval variables.

    An interval variable's binding *is* its numeric value (a snapshot
    number), where a graph variable's binding is a vid whose entity name
    may parse as a number — same comparison rules as
    :func:`repro.sparql.evaluate.filter_matches` otherwise.
    """
    def operand(term: str) -> Tuple[Optional[int], Optional[str]]:
        if is_variable(term):
            value = row.get(term)
            if value is None:
                raise PlanError(f"filter variable never bound: {term}")
            if term in interval_vars:
                return None, str(value)
            return value, name_of(value)
        return resolve(term), term

    left_vid, left_name = operand(expr.left)
    right_vid, right_name = operand(expr.right)
    if expr.op == "=":
        if left_vid is not None and right_vid is not None:
            return left_vid == right_vid
        return left_name == right_name
    if expr.op == "!=":
        if left_vid is not None and right_vid is not None:
            return left_vid != right_vid
        return left_name != right_name
    left_num = term_number(left_name) if left_name is not None else None
    right_num = term_number(right_name) if right_name is not None else None
    if left_num is None or right_num is None:
        return False  # SPARQL: type errors eliminate the row
    if expr.op == "<":
        return left_num < right_num
    if expr.op == "<=":
        return left_num <= right_num
    if expr.op == ">":
        return left_num > right_num
    return left_num >= right_num


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
