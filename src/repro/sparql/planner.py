"""Query planner: selectivity-ordered graph exploration.

Wukong executes a query as *graph exploration*: start from a constant
vertex (or, failing that, a predicate-index vertex) and extend variable
bindings one triple pattern at a time, always preferring patterns whose
subject or object is already bound so each step is an indexed neighbour
lookup rather than a cross product.  The integrated design lets the planner
see stream and stored patterns together, which is exactly the global
optimisation opportunity the composite design lacks (§2.3, Issue #2).

The planner emits an ordered list of :class:`PlannedStep`, each annotated
with how the executor should evaluate it:

``const_subject`` / ``const_object``
    Start (or continue) from a constant vertex key.
``bound_subject`` / ``bound_object``
    Expand each existing binding row through a neighbour lookup.
``index``
    Enumerate vertices from the predicate index (used only when no
    constant or bound variable is available — the non-selective queries of
    the paper's group II start this way).

Cost-aware ordering: with per-predicate cardinality statistics (any
object exposing ``out_degree(predicate)``, ``in_degree(predicate)`` and
``index_size(predicate)``; see ``repro.core.stats.PredicateStatistics``)
the greedy pass breaks ties *within* an access-path class by estimated
selectivity — constant starts still precede bound expansions precede
index scans, but among equally-classified candidates the one expected to
produce the fewest rows runs first, and an index start picks the smallest
predicate index instead of the first one written.  When the statistics
provider additionally exposes per-constant degrees
(``subject_degree(predicate, term)`` / ``object_degree(predicate,
term)``, each constant's exact degree in the store), constant starts
estimate the *specific* vertex's fan-out, so a heavy-hitter constant no
longer masquerades as a selective start.  This is the adaptive,
statistics-driven plan ordering of Strider (arXiv:1705.05688) adapted to
exploration plans.  Ordering is deterministic: estimates are pure
functions of the store's cardinality counters, and the original pattern
position is the final tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.sparql.ast import Query, TriplePattern, is_variable

#: Step kinds, ordered from most to least selective.
CONST_SUBJECT = "const_subject"
CONST_OBJECT = "const_object"
BOUND_SUBJECT = "bound_subject"
BOUND_OBJECT = "bound_object"
INDEX_START = "index"


@dataclass(frozen=True)
class PlannedStep:
    """One pattern with the access path chosen by the planner."""

    pattern: TriplePattern
    kind: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.pattern}"


@dataclass
class ExecutionPlan:
    """The ordered steps for one query."""

    query: Query
    steps: List[PlannedStep]
    #: The pattern ordering the steps follow (a permutation of pattern
    #: indices) — the only statistics-dependent part of a plan.
    order: Tuple[int, ...]
    #: The form the kernels run (the executor's slot layout and FILTER
    #: schedule).  Filled in by ``repro.core.pipeline``; the executor
    #: compiles a plan handed to it bare on first use.
    compiled: Optional[object] = field(default=None, repr=False,
                                       compare=False)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def _classify(pattern: TriplePattern, bound: Set[str]) -> Optional[str]:
    """The best access path for ``pattern`` given already-bound variables.

    Returns None when the pattern can only run as an index scan.
    """
    subject_const = not is_variable(pattern.subject)
    object_const = not is_variable(pattern.object)
    if subject_const:
        return CONST_SUBJECT
    if object_const:
        return CONST_OBJECT
    if pattern.subject in bound:
        return BOUND_SUBJECT
    if pattern.object in bound:
        return BOUND_OBJECT
    return None


def _score(kind: Optional[str]) -> int:
    """Lower scores are tried first (more selective)."""
    order = {CONST_SUBJECT: 0, CONST_OBJECT: 0, BOUND_SUBJECT: 1,
             BOUND_OBJECT: 1, None: 3}
    return order[kind]


def _estimate(pattern: TriplePattern, kind: Optional[str], stats) -> float:
    """Estimated rows produced per input row for ``pattern`` under ``kind``.

    Constant/bound starts expand through the predicate's average degree
    on the side being traversed; an index scan enumerates every edge of
    the predicate.  Without statistics every estimate is 0.0, which
    reduces the ordering to the purely positional greedy pass.
    """
    if stats is None:
        return 0.0
    predicate = pattern.predicate
    if kind == CONST_SUBJECT:
        # A constant start names a *specific* vertex: when the stats
        # provider knows per-constant degrees (exact, from the store), use
        # that vertex's own fan-out instead of the predicate mean, so a hot
        # constant (e.g. a viral hashtag) is not mistaken for a selective
        # start.
        specific = getattr(stats, "subject_degree", None)
        if specific is not None:
            return specific(predicate, pattern.subject)
        return stats.out_degree(predicate)
    if kind == BOUND_SUBJECT:
        return stats.out_degree(predicate)
    if kind == CONST_OBJECT:
        specific = getattr(stats, "object_degree", None)
        if specific is not None:
            return specific(predicate, pattern.object)
        return stats.in_degree(predicate)
    if kind == BOUND_OBJECT:
        return stats.in_degree(predicate)
    return stats.index_size(predicate)


def plan_order(patterns: Sequence[TriplePattern], stats=None,
               prebound: Set[str] = frozenset()) -> List[int]:
    """The greedy pattern ordering, as a permutation of pattern indices.

    Separated from step construction so callers can use the order as a
    plan-cache key: the order is the only statistics-dependent part of a
    plan, so ``(normalized AST, order)`` uniquely identifies the compiled
    plan even as the store's cardinalities drift.
    """
    for pattern in patterns:
        if is_variable(pattern.predicate):
            raise PlanError(
                f"variable predicates are unsupported: {pattern}")
    remaining = list(range(len(patterns)))
    bound = set(prebound)
    order: List[int] = []
    while remaining:
        best_idx = None
        best_key = None
        for position, idx in enumerate(remaining):
            pattern = patterns[idx]
            kind = _classify(pattern, bound)
            key = (_score(kind), _estimate(pattern, kind, stats), position)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        assert best_idx is not None
        order.append(best_idx)
        bound.update(patterns[best_idx].variables())
        remaining.remove(best_idx)
    return order


def estimate_plan_cost(patterns: Sequence[TriplePattern],
                       ordering: Sequence[int], stats,
                       prebound: Set[str] = frozenset()) -> float:
    """Estimated exploration cost of running ``patterns`` in ``ordering``.

    A uniform row-count model over the same per-step fan-out estimates the
    greedy ordering uses (:func:`_estimate`): walking the order, each step
    visits every current binding row once and produces ``fanout`` successor
    rows per input row, so it charges ``rows * (1 + fanout)`` and multiplies
    the row estimate by ``fanout``.  An index start enumerates the whole
    predicate index (fanout = index size).  The absolute number is
    meaningless; only *ratios between orderings of the same patterns under
    the same statistics* are — which is exactly what the adaptive re-planner
    (``repro.core.replan``) compares against its hysteresis threshold.
    Deterministic: a pure function of the statistics provider's counters.
    """
    rows = 1.0
    cost = 0.0
    bound = set(prebound)
    for idx in ordering:
        pattern = patterns[idx]
        kind = _classify(pattern, bound)
        fanout = _estimate(pattern, kind, stats)
        cost += rows * (1.0 + fanout)
        rows *= fanout
        bound.update(pattern.variables())
    return cost


def _steps_in_order(patterns: Sequence[TriplePattern],
                    ordering: Sequence[int],
                    prebound: Set[str] = frozenset()) -> List[PlannedStep]:
    """Classify each pattern's access path along a fixed ordering."""
    steps: List[PlannedStep] = []
    bound = set(prebound)
    for idx in ordering:
        pattern = patterns[idx]
        kind = _classify(pattern, bound) or INDEX_START
        steps.append(PlannedStep(pattern, kind))
        bound.update(pattern.variables())
    return steps


def plan_steps(patterns: Sequence[TriplePattern],
               prebound: Set[str] = frozenset(),
               stats=None) -> List[PlannedStep]:
    """Greedily order a bare pattern list, given already-bound variables.

    Used for sub-queries whose seed rows come from elsewhere (e.g. the
    composite design ships stream-side bindings into the Wukong
    subcomponent); ``prebound`` names the variables those seeds bind.
    ``stats`` enables selectivity tie-breaks (see module docstring).
    """
    ordering = plan_order(patterns, stats=stats, prebound=prebound)
    return _steps_in_order(patterns, ordering, prebound=prebound)


def plan_query(query: Query,
               fixed_order: Optional[Sequence[int]] = None,
               stats=None) -> ExecutionPlan:
    """Produce an execution plan for ``query``.

    With ``fixed_order`` (a permutation of pattern indices) the planner
    keeps that exact order and only classifies the access path of each
    step; benchmarks use this to reproduce the paper's deliberately
    sub-optimal composite plans (Fig. 4b).  ``stats`` (mutually exclusive
    with ``fixed_order``) orders patterns by estimated selectivity.
    """
    for pattern in query.patterns:
        if is_variable(pattern.predicate):
            raise PlanError(
                f"variable predicates are unsupported: {pattern}")

    if fixed_order is not None:
        ordering = list(fixed_order)
        if sorted(ordering) != list(range(len(query.patterns))):
            raise PlanError(
                f"fixed_order must permute 0..{len(query.patterns) - 1}: "
                f"{ordering}")
    else:
        ordering = plan_order(query.patterns, stats=stats)
    return ExecutionPlan(query, _steps_in_order(query.patterns, ordering),
                         order=tuple(ordering))
