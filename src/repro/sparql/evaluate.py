"""Shared evaluation of FILTER expressions and aggregates.

Both execution engines use these helpers — the graph explorer applies
filters as soon as their variables are bound (pruning mid-exploration) and
aggregates after projection; the relational baselines apply both after
their joins.  Keeping one implementation guarantees identical semantics,
which the cross-validation property tests rely on.

Values: terms are entity IDs internally; numeric comparisons and SUM/AVG
parse the entity *name* as a number (``95`` is numeric, ``Spots95`` is
not).  Rows whose operand is non-numeric fail ordering filters and are
skipped by numeric aggregates, following SPARQL's error-as-elimination
semantics.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.errors import PlanError
from repro.sparql.ast import (Aggregate, FilterExpr, IntervalFilter, Query,
                              TriplePattern, is_variable)

#: One variable-binding row (vids).
Row = Dict[str, int]

#: Resolves a vid back to its entity name.
NameOf = Callable[[int], str]

#: Resolves an entity name to its vid (None when unknown).
ResolveEntity = Callable[[str], Optional[int]]

#: Anything :func:`filters_by_step` schedules (both have ``variables()``).
AnyFilter = Union[FilterExpr, IntervalFilter]

#: The comparison each FILTER operator spells.
COMPARE: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def term_number(name: str) -> Optional[float]:
    """The numeric value of a term name, or None if it is not a number."""
    try:
        return float(name)
    except ValueError:
        return None


def _operand(term: str, row: Row, name_of: NameOf, resolve: ResolveEntity
             ) -> Tuple[Optional[int], str]:
    """Resolve one filter operand to ``(vid, name)`` under a row."""
    if is_variable(term):
        value = row.get(term)
        if value is None:
            raise PlanError(f"filter variable never bound: {term}")
        return value, name_of(value)
    return resolve(term), term


def filter_matches(expr: FilterExpr, row: Row, name_of: NameOf,
                   resolve: ResolveEntity) -> bool:
    """Whether one row of vids satisfies one FILTER expression."""
    left_vid, left_name = _operand(expr.left, row, name_of, resolve)
    right_vid, right_name = _operand(expr.right, row, name_of, resolve)
    if expr.op in ("=", "!="):
        if left_vid is not None and right_vid is not None:
            equal = left_vid == right_vid
        else:
            equal = left_name == right_name
        return equal if expr.op == "=" else not equal
    left_num = term_number(left_name)
    right_num = term_number(right_name)
    if left_num is None or right_num is None:
        return False  # SPARQL: type errors eliminate the row
    return COMPARE[expr.op](left_num, right_num)


#: Each SPARQL-T interval relation ``[s1, e1) op [s2, e2)`` as the
#: conjunction of endpoint comparisons it is (half-open semantics),
#: endpoints numbered ``s1, e1, s2, e2`` = 0..3: the verdict of an
#: interval FILTER.  ``OVERLAPS``: the intervals share a snapshot;
#: ``DURING``: the left is inside the right; ``BEFORE`` / ``AFTER``: the
#: left ends before the right starts / starts after it ends (or at it);
#: ``STARTS``: equal lower endpoints.
INTERVAL_COMPARISONS: Dict[str, Tuple[Tuple[str, int, int], ...]] = {
    "OVERLAPS": (("<", 0, 3), ("<", 2, 1)),
    "DURING": ((">=", 0, 2), ("<=", 1, 3)),
    "BEFORE": (("<=", 1, 2),),
    "AFTER": ((">=", 0, 3),),
    "STARTS": (("=", 0, 2),),
}


def apply_filters(rows: List[Row], filters: Sequence[FilterExpr],
                  name_of: NameOf, resolve: ResolveEntity,
                  meter=None, cost=None) -> List[Row]:
    """Keep the rows satisfying every filter (the relational baselines'
    post-join FILTER step)."""
    if not filters:
        return rows
    out = []
    for row in rows:
        if meter is not None and cost is not None:
            meter.charge(cost.filter_ns, times=len(filters),
                         category="filter")
        if all(filter_matches(f, row, name_of, resolve) for f in filters):
            out.append(row)
    return out


def filters_by_step(query: Query, patterns: Sequence[TriplePattern]
                    ) -> Tuple[List[List[AnyFilter]], List[AnyFilter]]:
    """Assign each filter — ordinary ones first, then SPARQL-T interval
    filters — to the earliest step after which its variables are all
    bound (enabling mid-exploration pruning).

    ``patterns[i]`` is the pattern step ``i`` matches; a step binds its
    pattern's graph variables and interval endpoint variables.  Returns
    ``(per-step assignments, leftovers)``; leftovers reference variables
    only OPTIONAL groups bind and must run after those resolve.  Raises
    when a filter references a variable the query never binds at all.
    """
    all_bound = set(query.variables())
    bound: Set[str] = set()
    step_variables: List[Set[str]] = []
    for pattern in patterns:
        bound.update(pattern.variables())
        bound.update(pattern.interval_variables())
        step_variables.append(set(bound))
    assignments: List[List[AnyFilter]] = [[] for _ in patterns]
    leftovers: List[AnyFilter] = []
    for expr in chain(query.filters, query.interval_filters):
        needed = set(expr.variables())
        if not needed <= all_bound:
            raise PlanError(
                f"filter references unbound variable(s): {expr}")
        for index, available in enumerate(step_variables):
            if needed <= available:
                assignments[index].append(expr)
                break
        else:
            leftovers.append(expr)
    return assignments, leftovers


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

#: Aggregated values can be counts/sums (numbers), not vids.
Value = Union[int, float]


def _aggregate_value(agg: Aggregate, group: List[Row],
                     name_of: NameOf) -> Optional[Value]:
    if agg.func == "COUNT":
        if agg.var is None:
            return len(group)
        return sum(1 for row in group if agg.var in row)
    numbers: List[float] = []
    names: List[str] = []
    for row in group:
        vid = row.get(agg.var)
        if vid is None:
            continue
        name = name_of(vid)
        names.append(name)
        number = term_number(name)
        if number is not None:
            numbers.append(number)
    if agg.func == "SUM":
        return sum(numbers)
    if agg.func == "AVG":
        return sum(numbers) / len(numbers) if numbers else None
    # MIN/MAX: numeric when every value is numeric, else lexicographic.
    if not names:
        return None
    if len(numbers) == len(names):
        return min(numbers) if agg.func == "MIN" else max(numbers)
    return (min(names) if agg.func == "MIN" else max(names))  # type: ignore


def aggregate_rows(rows: List[Row], query: Query, name_of: NameOf,
                   meter=None, cost=None) -> List[tuple]:
    """Group + aggregate solution rows into final result tuples.

    Result columns are ``query.output_columns()``: the GROUP BY keys (as
    vids) followed by the aggregate values (as Python numbers/strings).
    Solutions are deduplicated on all their variables first (set
    semantics, matching the explorer's deduplicating projection).
    """
    if not query.aggregates:
        raise ValueError("query has no aggregates")
    distinct: Dict[tuple, Row] = {}
    all_vars = query.variables()
    for row in rows:
        key = tuple(row.get(var, -1) for var in all_vars)
        distinct.setdefault(key, row)
    groups: Dict[tuple, List[Row]] = {}
    for row in distinct.values():
        key = tuple(row.get(var, -1) for var in query.group_by)
        groups.setdefault(key, []).append(row)
        if meter is not None and cost is not None:
            meter.charge(cost.binding_ns, category="aggregate")
    out = []
    for key in sorted(groups):
        group = groups[key]
        values = tuple(_aggregate_value(agg, group, name_of)
                       for agg in query.aggregates)
        out.append(key + values)
    return out
