"""Boundary semantics of interval FILTERs (half-open intervals), as the
executor compiles them (``_NumericFilter`` over ``INTERVAL_COMPARISONS``).

Exhaustive truth tables for the five operators at the edges: equal
endpoints, zero-width intervals, and :data:`OPEN_END` on either side —
the cases an off-by-one in the half-open convention would flip — plus
engine executions at boundary FILTER constants checked against the
brute-force history oracle (:mod:`repro.temporal.reference`).
"""

import pytest

from repro.errors import ParseError
from repro.sparql.ast import OPEN_END, IntervalFilter
from repro.sparql.parser import parse_query
from repro.store.executor import _NumericFilter

from store.kernel_cases import (BOUNDARY_QUERIES, as_json, frozen,
                                temporal_boundary_cases)

pytestmark = pytest.mark.temporal

OPS = ["OVERLAPS", "DURING", "BEFORE", "AFTER", "STARTS"]


def interval_op_holds(op, s1, e1, s2, e2):
    """The executor's verdict on one row: the interval FILTER compiled
    over four one-cell snapshot-number columns."""
    cfilter = _NumericFilter(IntervalFilter("?a", "?b", op, "?c", "?d"),
                             {"?a": 0, "?b": 1, "?c": 2, "?d": 3})
    return cfilter.select([[s1], [e1], [s2], [e2]], [0], None, None) == [0]


def brute(op, s1, e1, s2, e2):
    """The half-open definitions, written independently of the code
    under test: interval membership is ``s <= x < e``.

    ``OVERLAPS`` is stated as set intersection, which matches the
    operator's strict-inequality formula exactly on non-empty
    intervals (the only kind the system constructs: the parser refuses
    empty constant intervals and pattern-bound intervals are
    ``[sn, OPEN_END)``) — the truth table therefore quantifies
    ``OVERLAPS`` over non-empty operands, and the degenerate zero-width
    behaviour is pinned separately in :func:`test_zero_width_intervals`.
    """
    if op == "OVERLAPS":
        # Shares at least one snapshot: a non-empty intersection.
        return max(s1, s2) < min(e1, e2)
    if op == "DURING":
        return s1 >= s2 and e1 <= e2
    if op == "BEFORE":
        return e1 <= s2
    if op == "AFTER":
        return s1 >= e2
    return s1 == s2  # STARTS


#: Endpoint values covering equal endpoints, zero-width, and OPEN_END.
POINTS = [0, 1, 2, OPEN_END]


@pytest.mark.parametrize("op", OPS)
def test_truth_table_against_brute_force(op):
    for s1 in POINTS:
        for e1 in POINTS:
            for s2 in POINTS:
                for e2 in POINTS:
                    if op == "OVERLAPS" and (s1 >= e1 or s2 >= e2):
                        continue  # empty operand: pinned separately
                    assert interval_op_holds(op, s1, e1, s2, e2) == \
                        brute(op, s1, e1, s2, e2), (op, s1, e1, s2, e2)


def test_equal_endpoint_boundaries():
    # Touching intervals do not OVERLAP (half-open): [1,2) vs [2,3).
    assert not interval_op_holds("OVERLAPS", 1, 2, 2, 3)
    assert not interval_op_holds("OVERLAPS", 2, 3, 1, 2)
    # ...but BEFORE/AFTER accept exact adjacency.
    assert interval_op_holds("BEFORE", 1, 2, 2, 3)
    assert interval_op_holds("AFTER", 2, 3, 1, 2)
    # An interval is DURING itself, and STARTS itself.
    assert interval_op_holds("DURING", 1, 3, 1, 3)
    assert interval_op_holds("STARTS", 1, 3, 1, 9)


def test_zero_width_intervals():
    # Zero-width intervals cannot be written as constants (the parser
    # raises InvalidIntervalError on ``[2, 2)``) and never come from
    # patterns (always ``[sn, OPEN_END)``); they arise only through
    # variable aliasing in FILTER operands, where the operator's
    # strict-inequality formula treats ``[x, x)`` as the point ``x``:
    # it OVERLAPS an interval containing ``x`` strictly inside, but not
    # one starting (half-open) or ending at ``x``.
    assert interval_op_holds("OVERLAPS", 2, 2, 0, 5)
    assert interval_op_holds("OVERLAPS", 0, 5, 2, 2)
    assert not interval_op_holds("OVERLAPS", 2, 2, 2, 5)
    assert not interval_op_holds("OVERLAPS", 0, 2, 2, 2)
    assert not interval_op_holds("OVERLAPS", 2, 2, 2, 2)
    # The empty interval is vacuously DURING anything that brackets its
    # position, and both BEFORE and AFTER itself.
    assert interval_op_holds("DURING", 2, 2, 0, 5)
    assert interval_op_holds("BEFORE", 2, 2, 2, 2)
    assert interval_op_holds("AFTER", 2, 2, 2, 2)
    assert interval_op_holds("STARTS", 2, 2, 2, 7)


def test_open_end_on_either_side():
    # Live entries [s, OPEN_END) overlap every non-empty later window.
    assert interval_op_holds("OVERLAPS", 3, OPEN_END, 0, 4)
    assert interval_op_holds("OVERLAPS", 0, 4, 3, OPEN_END)
    assert not interval_op_holds("OVERLAPS", 3, OPEN_END, 0, 3)
    # A live entry is never BEFORE anything readable...
    assert not interval_op_holds("BEFORE", 3, OPEN_END, OPEN_END - 1,
                                 OPEN_END)
    # ...except an interval starting at OPEN_END itself.
    assert interval_op_holds("BEFORE", 3, OPEN_END, OPEN_END, OPEN_END)
    assert interval_op_holds("AFTER", OPEN_END, OPEN_END, 3, OPEN_END)
    # DURING tolerates the shared open end.
    assert interval_op_holds("DURING", 5, OPEN_END, 3, OPEN_END)
    assert not interval_op_holds("DURING", 3, OPEN_END, 5, OPEN_END)
    assert interval_op_holds("STARTS", OPEN_END, OPEN_END, OPEN_END, 0)


def test_unknown_operator_is_typed_error():
    with pytest.raises(ParseError):
        parse_query("SELECT ?U WHERE { ?U po ?P [?ts, ?te) "
                    "FILTER ([?ts, ?te) MEETS [0, 1)) }")


# --- engine vs oracle at the boundary constants -----------------------

@pytest.fixture(scope="module")
def boundary_run():
    """All boundary queries on one engine (the one-shot home node
    rotates per query, so the run is frozen as a whole)."""
    return as_json(temporal_boundary_cases())


@pytest.mark.parametrize("query", BOUNDARY_QUERIES)
def test_boundary_filters_match_oracle(boundary_run, query):
    """Engine executions at boundary FILTER constants: rows against the
    brute-force oracle (asserted by the case runner), charges against
    ``golden_kernels.json``."""
    case_id = "temporal/boundary/" + query
    assert boundary_run[case_id] == frozen(case_id)[case_id]


def test_boundary_reads_leave_state_unmoved(boundary_run):
    assert boundary_run["temporal/boundary/state"] == \
        frozen("temporal/boundary/state")["temporal/boundary/state"]
