"""The graph-exploration query executor.

Evaluates an :class:`~repro.sparql.planner.ExecutionPlan` by extending
variable-binding rows one pattern at a time, exactly as Wukong's
exploration engine: each step turns the current binding set into neighbour
lookups, so intermediate results stay pruned instead of exploding through
relational joins (the "join bomb" the paper contrasts against).

Three execution modes mirror the paper (§5, "Leveraging RDMA"):

*in-place* — one worker on one node runs the whole query, fetching remote
data with one-sided RDMA reads.  Chosen for selective queries (constant
start), which touch a modest amount of data.

*fork-join* — the query forks to every node; each branch explores from its
local portion of the start set (partitioned by vertex owner) and partial
results are gathered at the home node.  Chosen for non-selective
(index-start) queries; latency is the slowest branch plus fork/gather.

*migrate* — the non-RDMA fallback: execution hops between nodes following
the data, shipping binding rows in bulk messages between steps instead of
issuing per-read round trips.  Every neighbour lookup is local by
construction (rows are routed to the owner of their step's start vertex).

One explorer reads every source: the caller supplies an
``access_factory`` mapping a node id to a
pattern->:class:`~repro.store.distributed.StoreAccess` resolver, so the
same executor drives one-shot queries (persistent store only) and
continuous queries (stream windows + persistent store) — the global-plan
advantage of the integrated design.  An access only reads
(``neighbors_many`` and ``index_vertices``; a persistent one also
``neighbors_versions_batch``); the explorer resolves every constant and
predicate through the string server it is built with.

Each plan is *compiled* once: variables get fixed slot indices, and step
patterns, the FILTER schedule and UNION/OPTIONAL sub-plans are resolved
to slots and cached on the plan.

Columnar exploration: the binding set is a :class:`_Batch`, one flat
column per slot, from the seed row to projection — through the step
sequence (in-place, fork-join and migrate alike, with or without a
FILTER schedule), UNION arms, OPTIONAL groups, leftover FILTERs and
aggregates.  Expanding a step works
on whole columns (neighbour-list concatenation, ``[v] * k`` repetition,
index selections), key probes are deduplicated per batch, and projection
hands the projected columns on as they are (:class:`ExecutionResult`):
row tuples are built once, by the client decoder.  BigSR
(arXiv:1804.04367) motivates the layout: batch/columnar evaluation
amortizes per-row interpreter overhead for large binding sets.

The distributed modes ship whole column batches between nodes: routing
is a columnar partition-by-owner (``_Batch.select`` over first-occurrence
owner groups), each per-node branch expands under its own spawned meter,
and the bulk-message charge per hop is the largest single transfer of
the round.  Step-scheduled FILTERs evaluate as vectorized selects over
slot columns: C-level comparisons when every operand is a snapshot
number or a constant, else memoized per distinct operand pair.  UNION
arms and OPTIONAL groups extend one solution row at a time — a one-row
batch through the same kernels — because their probe deduplication,
and hence their lookup charges, are per row; their parts are
concatenated back into one batch, an unmatched OPTIONAL row keeping
None cells in its group's slots.

SPARQL-T quintuple patterns (``?s p ?o [?ts, ?te)``) are steps with two
more slots: a step that has them expands on the one version-carrying
kernel (:meth:`GraphExplorer._expand_versions_batch`), which reads
``(vids, sns)`` entries and binds each match's insertion snapshot and
open end beside the other side; interval FILTERs compile like ordinary
ones over those snapshot-number slots.  Which kernel runs is decided by
the step, never by the caller.

Charges: the layout only changes wall-clock speed.  Simulated charges
are issued for a fixed *set* of events — a neighbour fetch once per
distinct start vertex, one binding charge per produced row, one filter
charge per row and filter — and, being exact integers
(:mod:`repro.sim.cost`), in whatever order and grouping is cheapest.
The totals are pinned by ``tests/store/golden_kernels.json`` (first
frozen while a row-at-a-time twin of every kernel still agreed with it)
and ``tests/core/test_determinism``; rows are additionally checked
against the brute-force oracle (:mod:`repro.temporal.reference`).  See
DESIGN.md §4.7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import contains
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import (FilterExpr, IntervalFilter, OPEN_END,
                              TriplePattern, is_variable)
from repro.sparql.evaluate import (COMPARE, INTERVAL_COMPARISONS,
                                   AnyFilter, aggregate_rows, filter_matches,
                                   filters_by_step, term_number)
from repro.sparql.planner import (
    BOUND_OBJECT,
    BOUND_SUBJECT,
    CONST_OBJECT,
    CONST_SUBJECT,
    ExecutionPlan,
    INDEX_START,
    PlannedStep,
)
from repro.store.distributed import StoreAccess

#: One variable-binding row in the public (dict) API.
Row = Dict[str, int]

#: Maps a pattern to the data source it should read.
AccessResolver = Callable[[TriplePattern], StoreAccess]

#: Maps a node id to that node's pattern resolver.
AccessFactory = Callable[[int], AccessResolver]

#: Estimated wire size of one binding row during migration/gather
#: (a few 8-byte bindings plus framing).
_ROW_BYTES = 48

#: The ``(vids, sns)`` of a row no version-chain entry matches.
_NO_ENTRIES: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())

#: What a slot or result column holds: entity vids (-1 in a result cell
#: left unbound), snapshot numbers (a quintuple step's ``?ts`` /
#: ``?te``; ``OPEN_END`` for an open end) or aggregate values.
VID, SN, AGG = "vid", "sn", "agg"


@dataclass
class ExecutionResult:
    """The projected columns of one query execution.

    ``columns`` holds one list per output variable, ``nrows`` cells
    each, holding what ``kinds`` (one per variable: :data:`VID`,
    :data:`SN` or :data:`AGG`) says they hold.  They are final —
    deduplicated and cut to OFFSET/LIMIT — and never mutated after
    projection, so they may alias the executor's batch columns.
    ``nrows`` is kept apart because a zero-width answer (ASK, or a
    SELECT over a WHERE block with no variable) has rows but no
    columns.
    """

    variables: List[str]
    kinds: List[str]
    columns: List[list] = field(default_factory=list)
    nrows: int = 0

    @property
    def rows(self) -> List[Tuple]:
        """The answer as row tuples, built on every read (oracles and
        tests compare rows; no query path reads them)."""
        if self.columns:
            return list(zip(*self.columns))
        return [()] * self.nrows

    def __len__(self) -> int:
        return self.nrows

    def as_bool(self) -> bool:
        """The boolean answer of an ASK query (any solution exists)."""
        return self.nrows > 0


class _CompiledStep:
    """One planned step with its variables resolved to slot indices.

    ``ts_slot`` / ``te_slot`` are the slots of a quintuple pattern's
    ``[?ts, ?te)`` suffix (None on triple patterns): a step that has
    them runs on the version-carrying kernel.
    """

    __slots__ = ("kind", "pattern", "subject", "predicate", "object",
                 "subj_slot", "obj_slot", "ts_slot", "te_slot")

    def __init__(self, step: PlannedStep, slots: Dict[str, int]):
        pattern = step.pattern
        self.kind = step.kind
        self.pattern = pattern
        self.subject = pattern.subject
        self.predicate = pattern.predicate
        self.object = pattern.object
        self.subj_slot = slots[pattern.subject] \
            if is_variable(pattern.subject) else None
        self.obj_slot = slots[pattern.object] \
            if is_variable(pattern.object) else None
        self.ts_slot = slots.get(pattern.ts)
        self.te_slot = slots.get(pattern.te)  # set whenever ts_slot is


class _CompiledFilter:
    """A FILTER with a vid operand, its operands resolved to slot indices.

    Batch evaluation selects surviving row indices, memoizing the
    (charge-free) predicate evaluation per distinct operand pair — the
    verdict of ``filter_matches`` is a pure function of the operand
    values, so a memo hit is semantically identical to re-running it.
    An SN operand enters as the constant its decimal text spells; an
    operand an unmatched OPTIONAL left unbound eliminates the row
    (SPARQL's error-as-false).  Filter charges are issued by the caller
    (``filter_ns`` per row per filter, whatever the verdict).
    """

    __slots__ = ("expr", "left_slot", "right_slot", "left_sn", "right_sn")

    def __init__(self, expr: FilterExpr, slots: Dict[str, int],
                 kinds: List[str]):
        self.expr = expr
        self.left_slot = slots[expr.left] if is_variable(expr.left) else None
        self.right_slot = slots[expr.right] \
            if is_variable(expr.right) else None
        self.left_sn, self.right_sn = (slot is not None and kinds[slot] == SN
                                       for slot in (self.left_slot,
                                                    self.right_slot))

    def select(self, cols, indices: Sequence[int], strings) -> List[int]:
        """The sub-list of ``indices`` whose rows satisfy the filter
        (``strings``, the string server, names vids and resolves
        constants)."""
        name_of, resolve = strings.entity_name, strings.lookup_entity
        lcol = cols[self.left_slot] if self.left_slot is not None else None
        rcol = cols[self.right_slot] if self.right_slot is not None else None
        verdicts: Dict[Tuple, bool] = {}
        out: List[int] = []
        append = out.append
        for i in indices:
            key = (lcol[i] if lcol is not None else None,
                   rcol[i] if rcol is not None else None)
            verdict = verdicts.get(key)
            if verdict is None:
                expr, (left, right) = self.expr, key
                if self.left_sn or self.right_sn:
                    expr = FilterExpr(str(left) if self.left_sn else expr.left,
                                      expr.op, str(right) if self.right_sn
                                      else expr.right)
                try:  # (filter_matches reads the row for variables only)
                    verdict = filter_matches(
                        expr, {expr.left: left, expr.right: right}, name_of,
                        resolve)
                except PlanError:  # an operand is unbound in this row
                    verdict = False
                verdicts[key] = verdict
            if verdict:
                append(i)
        return out


class _NumericFilter:
    """A FILTER over snapshot numbers and constants only — an interval
    FILTER, or an ordinary one whose variables are all SN slots — as
    comparisons ``(compare, left, right)`` of ``(slot, None)`` or
    ``(None, constant)`` operands, each one C-level selection over int
    columns (``compress(indices, map(compare, left, right))``)."""

    __slots__ = ("comparisons",)

    def __init__(self, expr: AnyFilter, slots: Dict[str, int]):
        if isinstance(expr, IntervalFilter):
            terms = (expr.left_ts, expr.left_te, expr.right_ts, expr.right_te)
            pairs, parse = INTERVAL_COMPARISONS[expr.op], int
        else:
            terms, pairs = (expr.left, expr.right), ((expr.op, 0, 1),)
            parse = _equality_constant if expr.op in ("=", "!=") \
                else _ordering_constant
        operands = [(slots[term], None) if is_variable(term)
                    else (None, parse(term)) for term in terms]
        self.comparisons = [(COMPARE[op], operands[left], operands[right])
                            for op, left, right in pairs]

    def select(self, cols, indices: Sequence[int], strings) -> List[int]:
        """As :meth:`_CompiledFilter.select`; reads no names."""
        for compare, left, right in self.comparisons:
            indices = list(compress(indices, map(
                compare, _values(cols, left, indices),
                _values(cols, right, indices))))
        return indices


def _equality_constant(term: str):
    """``=`` / ``!=`` compare an SN's decimal text: a constant that is no
    int's decimal form stays text, which no SN equals (``01``, ``1.0``)."""
    return int(term) if term.isdecimal() and str(int(term)) == term \
        else term


def _ordering_constant(term: str) -> float:
    """A constant's number, or NaN (no ordering holds) if it is none."""
    number = term_number(term)
    return math.nan if number is None else number


def _values(cols, operand: Tuple, indices: Sequence[int]):
    """A comparison operand's values at ``indices`` (every row: as is)."""
    slot, const = operand
    if slot is None:
        return repeat(const, len(indices))
    column = cols[slot]
    if len(column) == len(indices):
        return column
    return map(column.__getitem__, indices)


class _CompiledPlan:
    """Slot layout + precompiled steps/filters/sub-plans of one plan."""

    __slots__ = ("slots", "nslots", "steps", "kinds",
                 "cfilters_at", "leftover_filters", "unions", "optionals",
                 "project_slots", "result_kinds")

    def __init__(self, plan: ExecutionPlan):
        from repro.sparql.planner import plan_steps
        query = plan.query
        self.slots: Dict[str, int] = {}
        for var in query.variables():
            if var not in self.slots:
                self.slots[var] = len(self.slots)
        self.nslots = len(self.slots)
        self.steps = [_CompiledStep(step, self.slots) for step in plan.steps]
        #: What each slot holds: SNs in the slots a quintuple step binds
        #: (the parser keeps those steps out of OPTIONAL / UNION), else vids.
        sn_slots = {slot for step in self.steps
                    for slot in (step.ts_slot, step.te_slot)}
        self.kinds = [SN if slot in sn_slots else VID
                      for slot in range(self.nslots)]

        # FILTER schedule: each filter — ordinary, then interval — runs
        # at the earliest step binding its variables; filters over
        # UNION- or OPTIONAL-bound variables are left over and run once
        # those resolve.
        self.leftover_filters = []
        self.cfilters_at = None
        if query.filters or query.interval_filters:
            filters_at, leftovers = filters_by_step(
                query, [step.pattern for step in plan.steps])

            def compile_filter(expr):
                if isinstance(expr, IntervalFilter) or all(
                        self.kinds[self.slots[var]] == SN
                        for var in expr.variables()):
                    return _NumericFilter(expr, self.slots)
                return _CompiledFilter(expr, self.slots, self.kinds)

            self.cfilters_at = [list(map(compile_filter, step_filters))
                                for step_filters in filters_at]
            self.leftover_filters = list(map(compile_filter, leftovers))

        # UNION branches and OPTIONAL groups are planned with the variables
        # already bound upstream marked as prebound, exactly as the
        # uncompiled executor planned them per execution.
        prebound = set(query.mandatory_variables())
        self.unions: List[List[List[_CompiledStep]]] = []
        for union in query.unions:
            self.unions.append(
                [[_CompiledStep(step, self.slots)
                  for step in plan_steps(branch, prebound=prebound)]
                 for branch in union])
            prebound |= {var for pattern in union[0]
                         for var in pattern.variables()}
        self.optionals: List[List[_CompiledStep]] = []
        for group in query.optionals:
            self.optionals.append(
                [_CompiledStep(step, self.slots)
                 for step in plan_steps(group, prebound=prebound)])
            prebound |= {var for pattern in group
                         for var in pattern.variables()}

        #: Slot index per projected variable (None: never bound -> -1).
        self.project_slots = [(var, self.slots.get(var))
                              for var in query.projected()]
        #: ``ExecutionResult.kinds``: the projected slots' (GROUP BY keys
        #: of an aggregate query; a never-bound variable's -1s are vids),
        #: then one per aggregate; none for ASK.
        self.result_kinds = [] if query.is_ask else [
            VID if slot is None else self.kinds[slot]
            for _, slot in self.project_slots] + [AGG] * len(query.aggregates)


class _RowView:
    """Dict-like read view of row ``i`` of a batch's columns (for the
    shared aggregate evaluation, which addresses rows by variable
    name)."""

    __slots__ = ("slots", "cols", "i")

    def __init__(self, slots: Dict[str, int], cols: List[Optional[list]],
                 i: int):
        self.slots = slots
        self.cols = cols
        self.i = i

    def get(self, var: str, default=None):
        slot = self.slots.get(var)
        column = self.cols[slot] if slot is not None else None
        value = column[self.i] if column is not None else None
        return default if value is None else value

    def __contains__(self, var: str) -> bool:
        return self.get(var) is not None


class _Batch:
    """A binding set in columnar layout: one flat column per slot.

    ``cols[slot]`` is either None (the slot is unbound in every row) or a
    list of ``nrows`` vids.  Columns are treated as immutable: kernels
    build new column lists (or share unchanged ones) instead of mutating,
    so batches may alias columns and store-owned neighbour lists freely.
    A step binds its slots in *all* rows; only an OPTIONAL group, matched
    in some rows and not others, leaves None cells in a column (see
    :meth:`concat`).  The step kernels never see such a column: OPTIONAL
    groups, and UNION arms, explore one row at a time (:meth:`row`).

    ``distinct`` tracks whether the rows are provably pairwise distinct
    (over their bound slots).  Expansion kernels prove it forward: a step
    that extends distinct rows with duplicate-free neighbour lists yields
    distinct rows again (every input slot value is preserved, so rows
    from different inputs still differ), and row selections preserve it.
    Projection uses the flag to skip the result dedup when the projected
    slots cover every bound slot.  False is always sound — it just means
    "unknown", and the dedup runs.
    """

    __slots__ = ("nrows", "cols", "distinct")

    def __init__(self, nrows: int, cols: List[Optional[List[int]]],
                 distinct: bool = False):
        self.nrows = nrows
        self.cols = cols
        self.distinct = distinct

    @staticmethod
    def empty(nslots: int) -> "_Batch":
        return _Batch(0, [None] * nslots, distinct=True)

    def row(self, i: int) -> "_Batch":
        """Row ``i`` as a one-row batch, a None cell becoming an unbound
        column.  ``distinct`` stays False, so whatever is built from
        single rows is deduplicated at projection."""
        return _Batch(1, [None if column is None or column[i] is None
                          else [column[i]] for column in self.cols])

    def select(self, indices: List[int]) -> "_Batch":
        """The sub-batch of the given row indices (columns shared when
        the selection keeps every row).  Selections of distinct rows stay
        distinct (indices are unique by construction)."""
        if len(indices) == self.nrows:
            return self
        cols = [c if c is None else list(map(c.__getitem__, indices))
                for c in self.cols]
        return _Batch(len(indices), cols, distinct=self.distinct)

    @staticmethod
    def concat(parts: List["_Batch"], nslots: int) -> "_Batch":
        """Row-wise concatenation, preserving part order.

        Parts of a step sequence or of one UNION share the same
        bound-slot set; a column bound in some parts but not others — an
        OPTIONAL group's slots, in the rows it could not extend — is
        filled with None for the unbound parts.

        ``distinct`` carries over when every part is distinct: the
        distributed drivers concatenate per-node parts that descend from
        disjoint row subsets of one distinct batch — a routing partition,
        or an index start partitioned by vertex owner — and expansions
        preserve every input slot value, so rows from different parts
        always differ on some slot.  Per-row parts (:meth:`row`) are
        never distinct.
        """
        parts = [part for part in parts if part.nrows]
        if not parts:
            return _Batch.empty(nslots)
        if len(parts) == 1:
            return parts[0]
        nrows = sum(part.nrows for part in parts)
        cols: List[Optional[List[int]]] = []
        for slot in range(nslots):
            if all(part.cols[slot] is None for part in parts):
                cols.append(None)
                continue
            col: List[int] = []
            for part in parts:
                source = part.cols[slot]
                col.extend(source if source is not None
                           else [None] * part.nrows)
            cols.append(col)
        return _Batch(nrows, cols,
                      distinct=all(part.distinct for part in parts))


class GraphExplorer:
    """Executes plans against store accesses.

    ``strings`` (the string server) resolves every constant term and
    predicate to its id — the one place a term is resolved; an access
    only reads — and names vids for FILTERs and aggregates.  Lookups
    charge nothing.
    """

    def __init__(self, cluster: Cluster, strings):
        self.cluster = cluster
        self.cost = cluster.cost
        self.strings = strings
        #: Wall-clock-only counter: executions that ran a step phase (a
        #: pure-UNION plan has none); surfaced via ``core.stats``.
        self.batch_executions = 0
        #: Observability hook: when a tracer is attached, executions add
        #: explore/project phase marks and fork-join branch spans to the
        #: tracer's current activity.  Read-only on meters (zero-cost in
        #: simulated time).
        self.tracer = None

    # -- compilation --------------------------------------------------------
    def _compile(self, plan: ExecutionPlan) -> _CompiledPlan:
        """The compiled form of ``plan``: engine plans arrive compiled
        (``repro.core.pipeline``); one handed in bare (baselines, tests)
        is compiled into the field on first use."""
        if plan.compiled is None:
            plan.compiled = _CompiledPlan(plan)
        return plan.compiled

    # -- public entry points ------------------------------------------------
    def execute(self, plan: ExecutionPlan, access_factory: AccessFactory,
                meter: LatencyMeter, home_node: int = 0,
                mode: str = "auto") -> ExecutionResult:
        """Run ``plan`` and return its projected, deduplicated columns.

        ``mode`` is ``"auto"`` (in-place for a plan with a quintuple
        step, whose version-chain reads are priced from the home node;
        else migrate when the fabric lacks RDMA; fork-join for index
        starts on multi-node clusters; in-place otherwise),
        ``"in_place"``, ``"fork_join"`` or ``"migrate"``.
        """
        query = plan.query
        if not plan.steps and not query.unions:
            raise PlanError("cannot execute an empty plan")
        compiled = self._compile(plan)
        if mode == "auto":
            if SN in compiled.kinds:  # a quintuple step reads versions
                mode = "in_place"
            elif not self.cluster.fabric.use_rdma \
                    and self.cluster.num_nodes > 1:
                mode = "migrate"
            elif plan.steps and plan.steps[0].kind == INDEX_START \
                    and self.cluster.num_nodes > 1:
                mode = "fork_join"
            else:
                mode = "in_place"
        act = self.tracer.current if self.tracer is not None else None
        if act is not None and act.meter is not meter:
            act = None  # the live activity is not this execution's
        if not plan.steps:  # a pure-UNION WHERE block
            batch = _Batch(1, [None] * compiled.nslots)
        else:
            if mode == "in_place":
                batch = self._run_steps_batch(compiled,
                                              access_factory(home_node),
                                              meter)
            elif mode in ("fork_join", "migrate"):
                batch = self._run_migrate_batch(compiled, access_factory,
                                                meter, home_node)
                if mode == "fork_join":
                    meter.charge(self.cost.join_gather_ns,
                                 category="gather")
            else:
                raise PlanError(f"unknown execution mode: {mode}")
            self.batch_executions += 1
        if batch.nrows and (compiled.unions or compiled.optionals):
            access_for = access_factory(home_node)
            batch = self._apply_unions(compiled, batch, access_for, meter)
            batch = self._apply_optionals(compiled, batch, access_for,
                                          meter)
        # Filters over UNION- or OPTIONAL-bound variables run once those
        # resolve (an unmatched OPTIONAL leaves them unbound: eliminated).
        batch = self._apply_step_filters_batch(
            batch, compiled.leftover_filters, meter)
        if act is not None:
            act.mark("explore", mode=mode)
        result = self._project_batch(plan, compiled, batch, meter)
        if act is not None:
            act.mark("project")
        return result

    def explore(self, steps: Sequence[PlannedStep],
                access_for: AccessResolver, meter: LatencyMeter,
                seeds: Optional[List[Row]] = None) -> List[Row]:
        """Run bare plan steps from ``seeds`` (default: one empty row).

        Returns raw binding rows without projection.  Used for embedded
        sub-queries whose seed bindings come from another system (the
        composite design) and by tests.  Rows are dicts at this boundary;
        an ad-hoc slot layout is compiled for the given steps.
        """
        if seeds is None:
            seeds = [{}]
        slots: Dict[str, int] = {}
        for var in chain(*(step.pattern.variables() for step in steps),
                         *seeds):
            slots.setdefault(var, len(slots))
        csteps = [_CompiledStep(step, slots) for step in steps]
        # Seeds share one variable set: the first classifies each column.
        cols = [[seed.get(var) for seed in seeds] for var in slots]
        batch = _Batch(len(seeds), [None if not column or column[0] is None
                                    else column for column in cols])
        batch = self._explore_batch(csteps, batch, access_for, meter)
        named = [(var, batch.cols[slot]) for var, slot in slots.items()]
        return [{var: column[i] for var, column in named
                 if column is not None and column[i] is not None}
                for i in range(batch.nrows)]

    # -- UNION / OPTIONAL ---------------------------------------------------
    def _apply_unions(self, compiled: _CompiledPlan, batch: _Batch,
                      access_for: AccessResolver,
                      meter: LatencyMeter) -> _Batch:
        """Alternate each UNION: concatenate the branches' extensions,
        branch-major, then in row order.

        Branches bind identical variable sets (the parser enforces it),
        so downstream joins and projections see uniform rows.  Each row is
        explored separately (probes deduplicate per row, not across the
        solution set), which is what the lookup charges are calibrated
        to.
        """
        for branches in compiled.unions:
            batch = _Batch.concat(
                [self._explore_batch(csteps, batch.row(i), access_for, meter)
                 for csteps in branches for i in range(batch.nrows)],
                compiled.nslots)
        return batch

    def _apply_optionals(self, compiled: _CompiledPlan, batch: _Batch,
                         access_for: AccessResolver,
                         meter: LatencyMeter) -> _Batch:
        """Left-outer-join each OPTIONAL group onto the solution rows.

        Rows the group cannot extend survive with its variables unbound —
        SPARQL's OPTIONAL semantics.  Optional resolution runs at the home
        node (seeds are the already-pruned solution set).
        """
        for csteps in compiled.optionals:
            parts = []
            for i in range(batch.nrows):
                row = batch.row(i)
                matches = self._explore_batch(csteps, row, access_for, meter)
                parts.append(matches if matches.nrows else row)
            batch = _Batch.concat(parts, compiled.nslots)
        return batch

    def _explore_batch(self, csteps: Sequence[_CompiledStep], batch: _Batch,
                       access_for: AccessResolver,
                       meter: LatencyMeter) -> _Batch:
        """Run bare compiled steps over a batch (no filters/projection):
        one solution row of a UNION arm or OPTIONAL group, or
        ``explore`` seeds."""
        for cstep in csteps:
            if not batch.nrows:
                break
            batch = self._expand_batch(cstep, batch,
                                       access_for(cstep.pattern), meter)
        return batch

    def _apply_step_filters_batch(self, batch: _Batch, cfilters: List,
                                  meter: LatencyMeter) -> _Batch:
        """Vectorized FILTERs over slot columns: a step's schedule, or
        the leftovers after UNION / OPTIONAL.

        Every row entering pays ``filter_ns`` per filter, whatever the
        verdict, so the whole block aggregates into one charge;
        evaluation itself is charge-free and memoized per distinct
        operand value.  A FILTER with a vid operand names vids and
        resolves constants through the string server; one over snapshot
        numbers reads no names.
        """
        if not cfilters or not batch.nrows:
            return batch
        meter.charge(self.cost.filter_ns,
                     times=batch.nrows * len(cfilters), category="filter")
        indices = list(range(batch.nrows))
        for cfilter in cfilters:
            if not indices:
                break
            indices = cfilter.select(batch.cols, indices, self.strings)
        return batch.select(indices)

    # -- columnar distributed execution ---------------------------------------
    def _run_migrate_batch(self, compiled: _CompiledPlan,
                           access_factory: AccessFactory,
                           meter: LatencyMeter,
                           home_node: int) -> _Batch:
        """Distributed execution: whole column batches follow the data
        between nodes in bulk transfers.

        Routing partitions the merged batch by owner in first-occurrence
        row order, per-node branches expand under spawned meters joined
        in that node order (``join_parallel`` merges the breakdown of
        the first strictly slowest branch, so the order is observable),
        and the gather sends each node's rows home in parallel.
        """
        resolvers: Dict[int, AccessResolver] = {
            node.node_id: access_factory(node.node_id)
            for node in self.cluster.alive_nodes()
        }
        located: Dict[int, _Batch] = {
            home_node: _Batch(1, [None] * compiled.nslots, distinct=True)}
        act = self.tracer.current if self.tracer is not None else None
        if act is not None and act.meter is not meter:
            act = None  # the live activity is not this execution's
        for index, cstep in enumerate(compiled.steps):
            routed = self._route_batch(cstep, compiled.nslots, located,
                                       resolvers, meter)
            if not routed:
                located = {}
                break
            group = act.group(f"step{index}") if act is not None else None
            branches = []
            next_located: Dict[int, _Batch] = {}
            for node_id, batch in routed.items():
                branch = meter.spawn()
                access = resolvers[node_id](cstep.pattern)
                out = self._expand_batch(cstep, batch, access, branch,
                                         index_owner=node_id
                                         if cstep.kind == INDEX_START
                                         else None)
                if compiled.cfilters_at is not None:
                    out = self._apply_step_filters_batch(
                        out, compiled.cfilters_at[index], branch)
                if out.nrows:
                    next_located[node_id] = out
                branches.append(branch)
                if group is not None:
                    group.branch(f"node{node_id}", branch, node=node_id,
                                 rows=out.nrows)
            meter.join_parallel(branches)
            if group is not None:
                group.close()
            located = next_located
            if not located:
                break
        # Gather partial results back at the home node (parallel sends).
        group = act.group("gather") if act is not None else None
        gather = []
        parts: List[_Batch] = []
        for node_id, batch in located.items():
            branch = meter.spawn()
            if node_id != home_node and batch.nrows:
                self.cluster.fabric.bulk_transfer(
                    branch, _ROW_BYTES * batch.nrows, category="network")
            gather.append(branch)
            parts.append(batch)
            if group is not None:
                group.branch(f"node{node_id}", branch, node=node_id,
                             rows=batch.nrows)
        meter.join_parallel(gather)
        if group is not None:
            group.close()
        return _Batch.concat(parts, compiled.nslots)

    def _route_batch(self, cstep: _CompiledStep, nslots: int,
                     located: Dict[int, _Batch],
                     resolvers: Dict[int, AccessResolver],
                     meter: LatencyMeter) -> Dict[int, _Batch]:
        """Move rows to the owner of the step's start vertex: partition
        the merged batch by owner.

        Owner groups are keyed in first-occurrence row order over the
        concatenated batch.  Migration messages from different nodes are
        concurrent, so the round charges the largest single transfer
        that actually crosses nodes.
        """
        merged = _Batch.concat(list(located.values()), nslots)
        routed: Dict[int, _Batch] = {}
        if cstep.kind == INDEX_START:
            # Broadcast: every node explores its local start vertices.
            # Columns are immutable, so branches can share the batch.
            meter.charge(self.cost.fork_ns, times=len(resolvers),
                         category="fork")
            for node_id in resolvers:
                routed[node_id] = merged
        elif cstep.kind in (CONST_SUBJECT, CONST_OBJECT):
            term = cstep.subject if cstep.kind == CONST_SUBJECT \
                else cstep.object
            vid = self.strings.lookup_entity(term)
            if vid is None:
                return {}
            routed[self.cluster.owner_of(vid)] = merged
        else:
            slot = cstep.subj_slot if cstep.kind == BOUND_SUBJECT \
                else cstep.obj_slot
            groups = self.cluster.owner_groups(merged.cols[slot])
            routed = {node_id: merged.select(indices)
                      for node_id, indices in groups.items()}
        largest = 0
        for dst, batch in routed.items():
            stayed_batch = located.get(dst)
            stayed = stayed_batch.nrows if stayed_batch is not None else 0
            moving = max(0, batch.nrows - stayed)
            largest = max(largest, moving)
        if largest and len(located) == 1 and set(located) == set(routed):
            largest = 0  # everything already sits on the right node
        if largest:
            self.cluster.fabric.bulk_transfer(meter, _ROW_BYTES * largest,
                                              category="network")
        return routed

    # -- columnar batch exploration -------------------------------------------
    def _run_steps_batch(self, compiled: _CompiledPlan,
                         access_for: AccessResolver,
                         meter: LatencyMeter) -> _Batch:
        """Run all steps on one node over a columnar batch."""
        batch = _Batch(1, [None] * compiled.nslots, distinct=True)
        for index, cstep in enumerate(compiled.steps):
            access = access_for(cstep.pattern)
            batch = self._expand_batch(cstep, batch, access, meter)
            if compiled.cfilters_at is not None:
                batch = self._apply_step_filters_batch(
                    batch, compiled.cfilters_at[index], meter)
            if not batch.nrows:
                break
        return batch

    def _expand_batch(self, cstep: _CompiledStep, batch: _Batch,
                      access: StoreAccess, meter: LatencyMeter,
                      index_owner: Optional[int] = None) -> _Batch:
        eid = self.strings.lookup_predicate(cstep.predicate)
        if eid is None:
            return _Batch.empty(len(batch.cols))
        if cstep.ts_slot is not None:
            return self._expand_versions_batch(batch, cstep, eid, access,
                                               meter, index_owner)
        kind = cstep.kind
        if kind == CONST_SUBJECT:
            svid = self.strings.lookup_entity(cstep.subject)
            if svid is None:
                return _Batch.empty(len(batch.cols))
            neighbors = access.neighbors_many((svid,), eid, DIR_OUT,
                                              meter)[svid]
            return self._bind_side_batch(batch, cstep.obj_slot, cstep.object,
                                         neighbors, meter)
        if kind == CONST_OBJECT:
            ovid = self.strings.lookup_entity(cstep.object)
            if ovid is None:
                return _Batch.empty(len(batch.cols))
            neighbors = access.neighbors_many((ovid,), eid, DIR_IN,
                                              meter)[ovid]
            return self._bind_side_batch(batch, cstep.subj_slot,
                                         cstep.subject, neighbors, meter)
        if kind == BOUND_SUBJECT:
            return self._expand_bound_batch(batch, cstep.subj_slot,
                                            cstep.obj_slot, cstep.object,
                                            eid, DIR_OUT, access, meter)
        if kind == BOUND_OBJECT:
            return self._expand_bound_batch(batch, cstep.obj_slot,
                                            cstep.subj_slot, cstep.subject,
                                            eid, DIR_IN, access, meter)
        if kind == INDEX_START:
            return self._expand_index_batch(batch, cstep, eid, access, meter,
                                            index_owner)
        raise PlanError(f"unknown step kind: {kind}")

    def _bind_side_batch(self, batch: _Batch, slot: Optional[int],
                         term: str, neighbors: List[int],
                         meter: LatencyMeter) -> _Batch:
        """Match or bind one side of a pattern against a neighbour list
        shared by every input row (the other side was a constant); one
        binding charge per produced row, aggregated."""
        nrows = batch.nrows
        nslots = len(batch.cols)
        if slot is None:  # the term is a constant: match, don't bind
            required = self.strings.lookup_entity(term)
            if required is None or required not in neighbors:
                return _Batch.empty(nslots)
            meter.charge(self.cost.binding_ns, times=nrows,
                         category="explore")
            return batch
        col = batch.cols[slot]
        if col is not None:  # already bound: membership filter
            nset = set(neighbors)
            sel = [i for i, vid in enumerate(col) if vid in nset]
            if not sel:
                return _Batch.empty(nslots)
            meter.charge(self.cost.binding_ns, times=len(sel),
                         category="explore")
            return batch.select(sel)
        k = len(neighbors)
        if not k:
            return _Batch.empty(nslots)
        reps = range(k)
        out_cols: List[Optional[List[int]]] = []
        for index, column in enumerate(batch.cols):
            if index == slot:
                out_cols.append(list(neighbors) if nrows == 1
                                else neighbors * nrows)
            elif column is None:
                out_cols.append(None)
            else:
                out_cols.append([vid for vid in column for _ in reps])
        meter.charge(self.cost.binding_ns, times=nrows * k,
                     category="explore")
        distinct = batch.distinct and len(set(neighbors)) == k
        return _Batch(nrows * k, out_cols, distinct=distinct)

    def _expand_bound_batch(self, batch: _Batch, bound_slot: int,
                            other_slot: Optional[int], other_term: str,
                            eid: int, direction: int, access: StoreAccess,
                            meter: LatencyMeter) -> _Batch:
        """Expand rows through neighbour lookups of an already-bound
        column, with key probes deduplicated per batch.

        Neighbour lists are fetched once per distinct start vertex.
        """
        nslots = len(batch.cols)
        starts = batch.cols[bound_slot]
        if starts is None:
            # Unbound everywhere (unmatched OPTIONAL shape): no row joins.
            return _Batch.empty(nslots)
        other_const: Optional[int] = None
        if other_slot is None:
            other_const = self.strings.lookup_entity(other_term)
            if other_const is None:
                return _Batch.empty(nslots)
        # Per-row lists are materialized lazily — the membership filter
        # below only needs the per-distinct-start dict.
        fetched = access.neighbors_many(starts, eid, direction, meter)
        other_col = batch.cols[other_slot] if other_slot is not None else None
        if other_const is not None or other_col is not None:
            # Membership filter against per-distinct-start neighbour sets
            # (charge-free bookkeeping); a columnar access serves
            # memoized per-column sets, and the row selection itself
            # runs entirely in C via compress/contains.
            sets_hook = getattr(access, "neighbor_sets", None)
            sets = sets_hook(fetched, eid, direction) \
                if sets_hook is not None else None
            if sets is None:
                sets = {start: set(lst) for start, lst in fetched.items()}
            if other_const is not None:
                wanted = other_const
                passing = {start for start in fetched
                           if wanted in sets[start]}
                sel = list(compress(count(),
                                    map(passing.__contains__, starts)))
            else:
                sel = list(compress(count(),
                                    map(contains,
                                        map(sets.__getitem__, starts),
                                        other_col)))
            if not sel:
                return _Batch.empty(nslots)
            meter.charge(self.cost.binding_ns, times=len(sel),
                         category="explore")
            return batch.select(sel)
        # Extend: each row fans out to its start's neighbour list.  The
        # fan-out is pure bookkeeping (charges are aggregated below), so
        # it runs entirely in C: counts/concat via map+chain, and bound
        # columns repeated with per-row itertools.repeat iterators.
        neighbor_lists = list(map(fetched.__getitem__, starts))
        counts = list(map(len, neighbor_lists))
        total = sum(counts)
        if not total:
            return _Batch.empty(nslots)
        all_one = counts.count(1) == len(counts)
        new_other = list(chain.from_iterable(neighbor_lists))
        out_cols: List[Optional[List[int]]] = []
        for index, column in enumerate(batch.cols):
            if index == other_slot:
                out_cols.append(new_other)
            elif column is None or all_one:
                out_cols.append(column)
            else:
                out_cols.append(list(chain.from_iterable(
                    map(repeat, column, counts))))
        meter.charge(self.cost.binding_ns, times=total, category="explore")
        # Distinct rows extended with duplicate-free lists stay distinct;
        # each distinct probe's list is verified once (charge-free).  A
        # columnar access memoizes the verdict per cached column, so the
        # check survives across window closes.
        distinct = False
        if batch.distinct:
            hook = getattr(access, "distinct_neighbors", None)
            verdict = hook(fetched, eid, direction) \
                if hook is not None else None
            if verdict is None:
                verdict = all(len(set(lst)) == len(lst)
                              for lst in fetched.values())
            distinct = verdict
        return _Batch(total, out_cols, distinct=distinct)

    def _expand_index_batch(self, batch: _Batch, cstep: _CompiledStep,
                            eid: int, access: StoreAccess,
                            meter: LatencyMeter,
                            index_owner: Optional[int] = None) -> _Batch:
        """Enumerate subjects from the predicate index, then bind objects.

        Every subject's neighbour list is fetched up front, then bindings
        are charged in one aggregated call.  With ``index_owner``, only
        start vertices
        owned by that node are enumerated (fork-join/migrate branches
        partition the start set).  The standard shape — one seed row,
        subject and object unbound — is expanded here; seed rows that
        already bind either side go through :meth:`_expand_index_seeded`.
        """
        subj_slot = cstep.subj_slot
        obj_slot = cstep.obj_slot
        nslots = len(batch.cols)
        subjects = access.index_vertices(eid, DIR_OUT, meter, index_owner)
        if batch.nrows != 1 or batch.cols[subj_slot] is not None \
                or (obj_slot is not None and obj_slot != subj_slot
                    and batch.cols[obj_slot] is not None):
            return self._expand_index_seeded(batch, cstep, subjects, eid,
                                             access, meter)
        required = self.strings.lookup_entity(cstep.object) \
            if obj_slot is None else None
        # Distinct subjects each contribute rows no other subject can
        # (the subject lands in a column), so the output is distinct iff
        # the subject list and every fetched list are duplicate-free.
        distinct = batch.distinct and len(set(subjects)) == len(subjects)
        subj_col: List[int] = []
        obj_col: List[int] = []
        fetched = access.neighbors_many(subjects, eid, DIR_OUT, meter)
        if obj_slot is None or obj_slot == subj_slot:
            # Object is a constant (or the subject variable itself):
            # each subject survives iff the object matches its list.
            if obj_slot == subj_slot:
                subj_col = [svid for svid in subjects
                            if svid in fetched[svid]]
            elif required is not None:
                subj_col = [svid for svid in subjects
                            if required in fetched[svid]]
            obj_col = subj_col
        else:
            lists = list(map(fetched.__getitem__, subjects))
            counts = list(map(len, lists))
            if any(counts):
                subj_col = list(chain.from_iterable(
                    map(repeat, subjects, counts)))
                obj_col = list(chain.from_iterable(lists))
                if distinct:
                    hook = getattr(access, "distinct_neighbors", None)
                    verdict = hook(fetched, eid, DIR_OUT) \
                        if hook is not None else None
                    if verdict is None:
                        verdict = all(len(set(lst)) == len(lst)
                                      for lst in lists)
                    distinct = verdict
        nrows = len(subj_col)
        if not nrows:
            return _Batch.empty(nslots)
        meter.charge(self.cost.binding_ns, times=nrows, category="explore")
        out_cols: List[Optional[List[int]]] = []
        for index, column in enumerate(batch.cols):
            if index == subj_slot:
                out_cols.append(subj_col)
            elif index == obj_slot:
                out_cols.append(obj_col)
            elif column is None:
                out_cols.append(None)
            else:  # a slot bound before the index start: repeat its value
                out_cols.append(column * nrows)
        return _Batch(nrows, out_cols, distinct=distinct)

    def _expand_index_seeded(self, batch: _Batch, cstep: _CompiledStep,
                             subjects: List[int], eid: int,
                             access: StoreAccess,
                             meter: LatencyMeter) -> _Batch:
        """Index expansion of seed rows that may already bind the
        subject or the object (``explore`` seeds, per-row UNION/OPTIONAL
        sub-steps) or that number more than one.

        One neighbour fetch per (row, matching subject) pair in row-major
        order — deliberately not deduplicated across rows — each followed
        by that pair's binding charge.
        """
        subj_slot = cstep.subj_slot
        obj_slot = cstep.obj_slot
        bound_subj = batch.cols[subj_slot]
        bound_obj = batch.cols[obj_slot] \
            if obj_slot != subj_slot else None
        binding_ns = self.cost.binding_ns
        fetch = access.neighbors_many
        source: List[int] = []  # input row of each output row
        subj_col: List[int] = []
        obj_col: List[int] = []
        for i in range(batch.nrows):
            for svid in subjects:
                if bound_subj is not None and bound_subj[i] != svid:
                    continue
                neighbors = fetch((svid,), eid, DIR_OUT, meter)[svid]
                if obj_slot == subj_slot:
                    matches = [svid] if svid in neighbors else []
                elif bound_obj is not None:
                    matches = [bound_obj[i]] \
                        if bound_obj[i] in neighbors else []
                else:
                    matches = neighbors
                if matches:
                    meter.charge(binding_ns, times=len(matches),
                                 category="explore")
                    source.extend([i] * len(matches))
                    subj_col.extend([svid] * len(matches))
                    obj_col.extend(matches)
        if not source:
            return _Batch.empty(len(batch.cols))
        out_cols: List[Optional[List[int]]] = []
        for index, column in enumerate(batch.cols):
            if index == subj_slot:
                out_cols.append(subj_col)
            elif index == obj_slot:
                out_cols.append(obj_col)
            elif column is None:
                out_cols.append(None)
            else:
                out_cols.append([column[i] for i in source])
        return _Batch(len(source), out_cols)

    def _expand_versions_batch(self, batch: _Batch, cstep: _CompiledStep,
                               eid: int, access: StoreAccess,
                               meter: LatencyMeter,
                               index_owner: Optional[int] = None) -> _Batch:
        """Expand a quintuple step — any step kind — binding ``?ts`` and
        ``?te`` beside the other side.

        The start column (the constant repeated, the bound side's
        column, or for ``INDEX_START`` the batch crossed with the index
        subjects, subject-major) is probed once per distinct start for
        its visible ``(vids, sns)`` entries.  Each row then takes, in
        entry order, the entries of its start that agree with what the
        row already fixes — the other side's constant or bound column, a
        ``?ts`` / ``?te`` an earlier step bound — and binds the rest:
        the other side to the entry's vid, ``?ts`` to its insertion
        snapshot, ``?te`` to :data:`OPEN_END` (append-only store: every
        visible entry is still live).  One aggregated binding charge;
        the probes come before the other side's constant is resolved,
        so an unknown constant still pays for them.
        """
        nslots = len(batch.cols)
        kind = cstep.kind
        if kind in (CONST_OBJECT, BOUND_OBJECT):
            start_slot, start_term = cstep.obj_slot, cstep.object
            other_slot, other_term = cstep.subj_slot, cstep.subject
            direction = DIR_IN
        else:
            start_slot, start_term = cstep.subj_slot, cstep.subject
            other_slot, other_term = cstep.obj_slot, cstep.object
            direction = DIR_OUT
        if kind == INDEX_START:
            subjects = access.index_vertices(eid, DIR_OUT, meter,
                                             index_owner)
            nrows = batch.nrows
            starts = subjects if nrows == 1 else list(
                chain.from_iterable(map(repeat, subjects, repeat(nrows))))
            cols = [column if column is None else column * len(subjects)
                    for column in batch.cols]
            cols[start_slot] = starts
            batch = _Batch(len(starts), cols)
        elif start_slot is None:
            anchor = self.strings.lookup_entity(start_term)
            if anchor is None:
                return _Batch.empty(nslots)
            starts = [anchor] * batch.nrows
        else:
            starts = batch.cols[start_slot]
        # Only the persistent store keeps version chains; the parser
        # admits quintuple patterns in one-shot queries alone.
        fetched = access.neighbors_versions_batch(starts, eid, direction,
                                                  meter)

        if other_slot is None:
            required = self.strings.lookup_entity(other_term)
            if required is None:
                return _Batch.empty(nslots)
            other_col = [required] * batch.nrows
        elif other_slot == start_slot:
            other_col = starts
        else:
            other_col = batch.cols[other_slot]
        ts_slot, te_slot = cstep.ts_slot, cstep.te_slot
        ts_col, te_col = batch.cols[ts_slot], batch.cols[te_slot]
        fixed = [column is not None for column in (other_col, ts_col, te_col)]
        if any(fixed):
            # Group each start's entries by the values a row can fix.
            grouped: Dict[int, Dict[Tuple, Tuple[List[int], List[int]]]] = {}
            for start, (vids, sns) in fetched.items():
                groups = grouped[start] = {}
                keys = zip(*compress((vids, sns, repeat(OPEN_END)), fixed))
                for vid, sn, key in zip(vids, sns, keys):
                    pool = groups.get(key)
                    if pool is None:
                        pool = groups[key] = ([], [])
                    pool[0].append(vid)
                    pool[1].append(sn)
            row_keys = zip(*compress((other_col, ts_col, te_col), fixed))
            pools = [grouped[start].get(key, _NO_ENTRIES)
                     for start, key in zip(starts, row_keys)]
        else:
            pools = list(map(fetched.__getitem__, starts))
        counts = [len(vids) for vids, _ in pools]
        total = sum(counts)
        if not total:
            return _Batch.empty(nslots)
        meter.charge(self.cost.binding_ns, times=total, category="explore")
        out_cols = [column if column is None else
                    list(chain.from_iterable(map(repeat, column, counts)))
                    for column in batch.cols]
        if other_col is None:
            out_cols[other_slot] = list(chain.from_iterable(
                vids for vids, _ in pools))
        if ts_col is None:
            out_cols[ts_slot] = list(chain.from_iterable(
                sns for _, sns in pools))
        if te_col is None:
            out_cols[te_slot] = [OPEN_END] * total
        return _Batch(total, out_cols)

    def _project_batch(self, plan: ExecutionPlan, compiled: _CompiledPlan,
                       batch: _Batch,
                       meter: LatencyMeter) -> ExecutionResult:
        """The projected columns, deduplicated in first-occurrence order
        (or the rows grouped and aggregated)."""
        query = plan.query
        if query.is_ask:
            return ExecutionResult(variables=[], kinds=compiled.result_kinds,
                                   nrows=min(batch.nrows, 1))
        if query.aggregates:
            views = [_RowView(compiled.slots, batch.cols, i)
                     for i in range(batch.nrows)]
            out = aggregate_rows(views, query, self.strings.entity_name,
                                 meter, self.cost)
            columns, nrows = _slice(list(map(list, zip(*out))), len(out),
                                    query)
            return ExecutionResult(variables=query.output_columns(),
                                   kinds=compiled.result_kinds,
                                   columns=columns, nrows=nrows)
        nrows = batch.nrows
        proj_cols: List[List[int]] = []
        proj_slots = set()
        for _, slot in compiled.project_slots:
            column = batch.cols[slot] if slot is not None else None
            proj_slots.add(slot)
            if column is None:
                column = [-1] * nrows
            elif compiled.optionals:  # unmatched OPTIONAL rows: None cells
                column = [-1 if vid is None else vid for vid in column]
            proj_cols.append(column)
        # The dedup is skippable when the rows are provably distinct and
        # every bound slot is projected: projecting a superset of the
        # bound slots of distinct rows cannot create duplicates (unbound
        # slots are the constant -1 in every row).
        bound_slots = {index for index, column in enumerate(batch.cols)
                       if column is not None}
        no_dupes = batch.distinct and bound_slots <= proj_slots \
            and (bound_slots or nrows <= 1)
        if not proj_cols:  # zero-width rows: one solution at most
            nrows = min(nrows, 1)
        elif len(proj_cols) == 1:
            # First-occurrence dedup in C (dict preserves insertion
            # order), on the ints themselves.
            if not no_dupes:
                proj_cols = [list(dict.fromkeys(proj_cols[0]))]
                nrows = len(proj_cols[0])
        elif not no_dupes and nrows > 1:
            # Only rows can be compared whole: zip, dedup, and transpose
            # back unless nothing was dropped.
            unique = dict.fromkeys(zip(*proj_cols))
            if len(unique) < nrows:
                proj_cols = list(map(list, zip(*unique)))
                nrows = len(unique)
        meter.charge(self.cost.binding_ns, times=nrows, category="project")
        columns, nrows = _slice(proj_cols, nrows, query)
        return ExecutionResult(
            variables=[var for var, _ in compiled.project_slots],
            kinds=compiled.result_kinds, columns=columns, nrows=nrows)


def _slice(columns: List[list], nrows: int,
           query) -> Tuple[List[list], int]:
    """Apply the query's OFFSET/LIMIT to the solution sequence: the
    sliced columns and their length."""
    start = min(query.offset, nrows)
    stop = nrows if query.limit is None else min(nrows, start + query.limit)
    if start == 0 and stop == nrows:
        return columns, nrows
    return [column[start:stop] for column in columns], stop - start
