"""Columnar kernels for SPARQL-T interval (quintuple) queries.

Quintuple patterns need each matched entry's insertion snapshot next to
its value, which the one-shot kernels deliberately do not carry (their
visible-prefix reads drop the SN column).  These kernels walk the
planner's selectivity-ordered steps over parallel column lists with the
SN (``?ts``) column threaded through every expansion; ``?te`` binds
:data:`~repro.sparql.ast.OPEN_END` (append-only store: every visible
entry is still live):

* store reads go through the batch version-carrying entry point
  (:meth:`DistributedStore.neighbors_versions_batch`) — one probe per
  *distinct* start vertex;
* FILTER application is compiled once per plan into a static schedule
  (:class:`CompiledIntervalPlan`, built by ``repro.core.pipeline``):
  the executor's scheduler pins each ordinary and interval FILTER to
  the first step at which its variables are bound, and the compiled
  selectors (the executor's ``_CompiledFilter`` over by-name columns /
  :class:`_CompiledIntervalFilter`) evaluate each *distinct* operand
  tuple once per batch;
* each produced binding charges ``binding_ns`` and each filter
  application ``filter_ns``, aggregated per extend / per filter block.

Charges are exact integers (:mod:`repro.sim.cost`), so their order and
grouping are free; what ``tests/store/golden_kernels.json`` pins is the
*set* of charged events.  One thing remains observable: an aggregated
charge with ``times=0`` would still create its breakdown category at
zero, so every aggregate charge here is guarded by a positive count.

Row-order contract: each expansion produces rows in nested-loop order —
anchor probes are shared (row-major, entry-minor), bound-start
expansions gather per row, and ``INDEX_START`` concatenates per-subject
parts (subject-major, then row, then entry).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, List, Optional, Tuple

from repro.errors import PlanError
from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import IntervalFilter, OPEN_END, Query, is_variable
from repro.sparql.evaluate import filters_by_step
from repro.sparql.planner import (BOUND_OBJECT, BOUND_SUBJECT, CONST_OBJECT,
                                  CONST_SUBJECT, ExecutionPlan, PlannedStep)
from repro.store.executor import _CompiledFilter
from repro.temporal.evaluate import IntervalCounters, interval_op_holds

#: Column store: graph variables map to vid columns, interval endpoint
#: variables map to snapshot-number columns; all columns share length.
Columns = Dict[str, List[int]]


class _CompiledIntervalFilter:
    """One interval FILTER compiled into a column selector.

    Constant endpoints are resolved once at compile time; variable
    endpoints read their columns, and each distinct endpoint quadruple
    runs :func:`interval_op_holds` once per batch.
    """

    __slots__ = ("ifilter", "endpoints")

    def __init__(self, ifilter: IntervalFilter):
        self.ifilter = ifilter
        self.endpoints: List[Tuple[Optional[str], Optional[int]]] = [
            (term, None) if is_variable(term) else (None, int(term))
            for term in (ifilter.left_ts, ifilter.left_te,
                         ifilter.right_ts, ifilter.right_te)]

    def select(self, cols: Columns, indices, name_of,
               resolve) -> List[int]:
        """Same call shape as ``_CompiledFilter.select``; endpoints are
        numbers, so the name lookups go unused."""
        op = self.ifilter.op
        r0, r1, r2, r3 = [const if term is None else cols[term]
                          for term, const in self.endpoints]
        memo: Dict[Tuple[int, int, int, int], bool] = {}
        out: List[int] = []
        for i in indices:
            key = (r0[i] if type(r0) is list else r0,
                   r1[i] if type(r1) is list else r1,
                   r2[i] if type(r2) is list else r2,
                   r3[i] if type(r3) is list else r3)
            try:
                verdict = memo[key]
            except KeyError:
                verdict = interval_op_holds(op, *key)
                memo[key] = verdict
            if verdict:
                out.append(i)
        return out


class CompiledIntervalPlan:
    """An interval query's steps plus its static FILTER schedule.

    ``filters_at[i]`` holds the compiled filters (ordinary, then
    interval) that become ready after step ``i`` — the first step after
    which all their variables, endpoint variables included, are bound.
    """

    __slots__ = ("steps", "filters_at")

    def __init__(self, plan: ExecutionPlan):
        query = plan.query
        self.steps: List[PlannedStep] = plan.steps
        filters_at, leftovers = filters_by_step(
            query, [step.pattern for step in self.steps])
        if leftovers:
            raise PlanError(
                f"interval queries cannot filter on OPTIONAL-bound "
                f"variables: {leftovers[0]}")
        keys = {var: var for var in query.variables()}
        interval_vars = frozenset(query.interval_variables())
        self.filters_at = [
            [_CompiledIntervalFilter(f) if isinstance(f, IntervalFilter)
             else _CompiledFilter(f, keys, interval_vars)
             for f in step_filters]
            for step_filters in filters_at]


def _extend_shared(cols: Columns, nrows: int, anchor_var: Optional[str],
                   anchor_vid: int, other_term: str, ts_var: Optional[str],
                   te_var: Optional[str], vids: List[int], sns: List[int],
                   resolve, meter: LatencyMeter,
                   binding_ns: int) -> Tuple[Columns, int]:
    """Extend the batch against one shared probe's entry list.

    Covers ``CONST_SUBJECT``/``CONST_OBJECT`` (anchor is the constant,
    ``anchor_var`` is None) and one ``INDEX_START`` subject part
    (``anchor_var`` is the subject variable).  Binding targets are
    written in the order anchor, unbound other, ``?ts``, ``?te``, with
    later writes winning on variable name collisions.
    """
    if is_variable(other_term):
        const_other = None
        other_col = cols.get(other_term)
    else:
        const_other = resolve(other_term)
        if const_other is None:
            return {}, 0
        other_col = None
    ts_col = cols.get(ts_var) if ts_var is not None else None
    te_col = cols.get(te_var) if te_var is not None else None
    bind_other = other_col is None and const_other is None

    if const_other is not None:
        sel_vids: List[int] = []
        sel_sns: List[int] = []
        for v, s in zip(vids, sns):
            if v == const_other:
                sel_vids.append(v)
                sel_sns.append(s)
    else:
        sel_vids, sel_sns = vids, sns

    out: Columns = {}
    if other_col is None and ts_col is None:
        # Uniform branch: every surviving row takes every selected
        # entry (cross product), so columns tile instead of gather.
        ksel = len(sel_vids)
        if te_col is not None:
            keep = [i for i in range(nrows) if te_col[i] == OPEN_END]
            nkeep = len(keep)
        else:
            keep = None
            nkeep = nrows
        total = nkeep * ksel
        if total == 0:
            return {}, 0
        for var, col in cols.items():
            base = col if keep is None else [col[i] for i in keep]
            out[var] = list(chain.from_iterable(
                map(repeat, base, repeat(ksel))))
        targets: Columns = {}
        if anchor_var is not None:
            targets[anchor_var] = [anchor_vid] * total
        if bind_other:
            targets[other_term] = sel_vids * nkeep
        if ts_var is not None:
            targets[ts_var] = sel_sns * nkeep
        if te_var is not None:
            targets[te_var] = [OPEN_END] * total
        out.update(targets)
        meter.charge(binding_ns, times=total, category="explore")
        return out, total

    # Constrained branch: a bound other-vertex or ``?ts`` column makes
    # the match per-row; index the entry pool once and gather.
    index: Dict = {}
    if other_col is not None and ts_col is not None:
        for pos, pair in enumerate(zip(sel_vids, sel_sns)):
            index.setdefault(pair, []).append(pos)
        keys = list(zip(other_col, ts_col))
    elif other_col is not None:
        for pos, v in enumerate(sel_vids):
            index.setdefault(v, []).append(pos)
        keys = other_col
    else:
        for pos, s in enumerate(sel_sns):
            index.setdefault(s, []).append(pos)
        keys = ts_col
    empty: Tuple[int, ...] = ()
    pos_lists = []
    for i in range(nrows):
        if te_col is not None and te_col[i] != OPEN_END:
            pos_lists.append(empty)
        else:
            pos_lists.append(index.get(keys[i], empty))
    counts = [len(p) for p in pos_lists]
    total = sum(counts)
    if total == 0:
        return {}, 0
    for var, col in cols.items():
        out[var] = list(chain.from_iterable(map(repeat, col, counts)))
    flat = [p for plist in pos_lists for p in plist]
    targets = {}
    if anchor_var is not None:
        targets[anchor_var] = [anchor_vid] * total
    if bind_other:
        targets[other_term] = [sel_vids[p] for p in flat]
    if ts_var is not None:
        targets[ts_var] = [sel_sns[p] for p in flat]
    if te_var is not None:
        targets[te_var] = [OPEN_END] * total
    out.update(targets)
    meter.charge(binding_ns, times=total, category="explore")
    return out, total


def _extend_bound(cols: Columns, nrows: int, start_term: str,
                  other_term: str, ts_var: Optional[str],
                  te_var: Optional[str], eid: int, direction: int, store,
                  home_node: int, snapshot: int, meter: LatencyMeter,
                  counters: IntervalCounters, resolve,
                  binding_ns: int) -> Tuple[Columns, int]:
    """Extend the batch through a bound-start expansion step: one
    batched probe per distinct start vertex, one aggregated binding
    charge."""
    starts = cols[start_term]
    fetched = store.neighbors_versions_batch(
        home_node, starts, eid, direction, meter, max_sn=snapshot,
        category="store")
    for vlist, _ in fetched.values():
        counters.record(len(vlist))

    if is_variable(other_term):
        const_other = None
        other_col = cols.get(other_term)
    else:
        # Resolved after the probes on purpose: the probes are charged
        # even when the constant turns out to be unknown.
        const_other = resolve(other_term)
        if const_other is None:
            return {}, 0
        other_col = None
    ts_col = cols.get(ts_var) if ts_var is not None else None
    te_col = cols.get(te_var) if te_var is not None else None
    bind_other = other_col is None and const_other is None

    if const_other is not None:
        prepared: Dict[int, Tuple[List[int], List[int]]] = {}
        for start, (vlist, slist) in fetched.items():
            pv: List[int] = []
            ps: List[int] = []
            for v, s in zip(vlist, slist):
                if v == const_other:
                    pv.append(v)
                    ps.append(s)
            prepared[start] = (pv, ps)
    else:
        prepared = fetched

    out: Columns = {}
    if other_col is None and ts_col is None:
        counts = []
        for i in range(nrows):
            if te_col is not None and te_col[i] != OPEN_END:
                counts.append(0)
            else:
                counts.append(len(prepared[starts[i]][0]))
        total = sum(counts)
        if total == 0:
            return {}, 0
        meter.charge(binding_ns, times=total, category="explore")
        for var, col in cols.items():
            out[var] = list(chain.from_iterable(map(repeat, col, counts)))
        targets: Columns = {}
        if bind_other:
            targets[other_term] = list(chain.from_iterable(
                prepared[starts[i]][0] for i in range(nrows) if counts[i]))
        if ts_var is not None:
            targets[ts_var] = list(chain.from_iterable(
                prepared[starts[i]][1] for i in range(nrows) if counts[i]))
        if te_var is not None:
            targets[te_var] = [OPEN_END] * total
        out.update(targets)
        return out, total

    # Constrained branch: lazy per-start indexes over the entry pools.
    indexes: Dict[int, Dict] = {}

    def index_for(start: int) -> Dict:
        idx = indexes.get(start)
        if idx is None:
            idx = {}
            pv, ps = prepared[start]
            if other_col is not None and ts_col is not None:
                for pos, pair in enumerate(zip(pv, ps)):
                    idx.setdefault(pair, []).append(pos)
            elif other_col is not None:
                for pos, v in enumerate(pv):
                    idx.setdefault(v, []).append(pos)
            else:
                for pos, s in enumerate(ps):
                    idx.setdefault(s, []).append(pos)
            indexes[start] = idx
        return idx

    empty: Tuple[int, ...] = ()
    pos_lists = []
    for i in range(nrows):
        if te_col is not None and te_col[i] != OPEN_END:
            pos_lists.append(empty)
            continue
        if other_col is not None and ts_col is not None:
            key = (other_col[i], ts_col[i])
        elif other_col is not None:
            key = other_col[i]
        else:
            key = ts_col[i]
        pos_lists.append(index_for(starts[i]).get(key, empty))
    counts = [len(p) for p in pos_lists]
    total = sum(counts)
    if total == 0:
        return {}, 0
    meter.charge(binding_ns, times=total, category="explore")
    for var, col in cols.items():
        out[var] = list(chain.from_iterable(map(repeat, col, counts)))
    targets = {}
    if bind_other:
        targets[other_term] = [prepared[starts[i]][0][p]
                               for i in range(nrows) for p in pos_lists[i]]
    if ts_var is not None:
        targets[ts_var] = [prepared[starts[i]][1][p]
                           for i in range(nrows) for p in pos_lists[i]]
    if te_var is not None:
        targets[te_var] = [OPEN_END] * total
    out.update(targets)
    return out, total


def _extend_index(cols: Columns, nrows: int, pattern, eid: int, store,
                  home_node: int, snapshot: int, meter: LatencyMeter,
                  counters: IntervalCounters, resolve,
                  binding_ns: int) -> Tuple[Columns, int]:
    """``INDEX_START``: enumerate subjects, expand each subject part.

    Index vertices are deduplicated per shard and each vertex is owned
    by exactly one shard, so the gathered subjects are globally unique
    and the batch probe issues exactly one probe per subject, all of
    them up front.  Parts concatenate subject-major (then row, then
    entry).
    """
    subjects = store.gather_index(home_node, eid, DIR_OUT, meter,
                                  category="store")
    fetched = store.neighbors_versions_batch(
        home_node, subjects, eid, DIR_OUT, meter, max_sn=snapshot,
        category="store")
    for vlist, _ in fetched.values():
        counters.record(len(vlist))

    if nrows == 1 and not cols:
        # First-step fast path: the batch is the single empty row, so
        # every subject part is its (optionally constant-filtered)
        # entry list verbatim — no per-part column tiling needed.
        if is_variable(pattern.object):
            const_other = None
        else:
            const_other = resolve(pattern.object)
            if const_other is None:
                # Every subject was probed (and charged) even though
                # the unknown constant can match none of them.
                return {}, 0
        subj_col: List[int] = []
        obj_col: List[int] = []
        ts_col: List[int] = []
        for svid in subjects:
            vids, sns = fetched[svid]
            if const_other is not None:
                keep = [k for k, v in enumerate(vids) if v == const_other]
                vids = [vids[k] for k in keep]
                sns = [sns[k] for k in keep]
            n = len(vids)
            if not n:
                continue
            subj_col.extend(repeat(svid, n))
            obj_col.extend(vids)
            ts_col.extend(sns)
        total = len(subj_col)
        if total == 0:
            return {}, 0
        # Assignment order subject, unbound object, ?ts, ?te — later
        # writes win on variable name collisions.
        targets: Columns = {pattern.subject: subj_col}
        if const_other is None:
            targets[pattern.object] = obj_col
        if pattern.ts is not None:
            targets[pattern.ts] = ts_col
        if pattern.te is not None:
            targets[pattern.te] = [OPEN_END] * total
        meter.charge(binding_ns, times=total, category="explore")
        return targets, total

    parts: List[Columns] = []
    total = 0
    for svid in subjects:
        vids, sns = fetched[svid]
        part, part_n = _extend_shared(
            cols, nrows, pattern.subject, svid, pattern.object,
            pattern.ts, pattern.te, vids, sns, resolve, meter, binding_ns)
        if part_n:
            parts.append(part)
            total += part_n
    if not parts:
        return {}, 0
    if len(parts) == 1:
        return parts[0], total
    merged = {var: list(chain.from_iterable(part[var] for part in parts))
              for var in parts[0]}
    return merged, total


def evaluate_interval_batch(query: Query, plan: CompiledIntervalPlan,
                            store, home_node: int, snapshot: int,
                            meter: LatencyMeter,
                            counters: Optional[IntervalCounters] = None
                            ) -> Tuple[List[str], List[Tuple[int, ...]]]:
    """Run an interval (quintuple) query at a pinned ``snapshot``.

    Returns ``(variables, rows)`` ready for an ``ExecutionResult``: the
    projected columns, graph variables as vids and interval variables
    as snapshot numbers.
    """
    strings = store.strings
    cost = store.cluster.cost
    name_of = strings.entity_name
    resolve = strings.lookup_entity
    if counters is None:
        counters = IntervalCounters()
    binding_ns = cost.binding_ns
    filter_ns = cost.filter_ns

    cols: Columns = {}
    nrows = 1

    def apply_filters(filters) -> None:
        nonlocal cols, nrows
        if not filters or nrows == 0:
            # Guarded so a times=0 charge cannot create an empty
            # breakdown category.
            return
        meter.charge(filter_ns, times=nrows * len(filters),
                     category="filter")
        indices = range(nrows)
        for f in filters:
            if not indices:
                break
            indices = f.select(cols, indices, name_of, resolve)
        if len(indices) != nrows:
            cols = {var: [col[i] for i in indices]
                    for var, col in cols.items()}
            nrows = len(indices)

    for at, step in enumerate(plan.steps):
        pattern = step.pattern
        eid = strings.lookup_predicate(pattern.predicate)
        if eid is None:
            # Unknown predicate empties the batch before this step's
            # filters run (and before they are charged).
            nrows = 0
            break
        if step.kind == CONST_SUBJECT:
            anchor = resolve(pattern.subject)
            if anchor is None:
                cols, nrows = {}, 0
            else:
                vids, sns = store.neighbors_versions_from(
                    home_node, anchor, eid, DIR_OUT, meter,
                    max_sn=snapshot, category="store")
                counters.record(len(vids))
                cols, nrows = _extend_shared(
                    cols, nrows, None, anchor, pattern.object,
                    pattern.ts, pattern.te, vids, sns, resolve, meter,
                    binding_ns)
        elif step.kind == CONST_OBJECT:
            anchor = resolve(pattern.object)
            if anchor is None:
                cols, nrows = {}, 0
            else:
                vids, sns = store.neighbors_versions_from(
                    home_node, anchor, eid, DIR_IN, meter,
                    max_sn=snapshot, category="store")
                counters.record(len(vids))
                cols, nrows = _extend_shared(
                    cols, nrows, None, anchor, pattern.subject,
                    pattern.ts, pattern.te, vids, sns, resolve, meter,
                    binding_ns)
        elif step.kind == BOUND_SUBJECT:
            cols, nrows = _extend_bound(
                cols, nrows, pattern.subject, pattern.object, pattern.ts,
                pattern.te, eid, DIR_OUT, store, home_node, snapshot,
                meter, counters, resolve, binding_ns)
        elif step.kind == BOUND_OBJECT:
            cols, nrows = _extend_bound(
                cols, nrows, pattern.object, pattern.subject, pattern.ts,
                pattern.te, eid, DIR_IN, store, home_node, snapshot,
                meter, counters, resolve, binding_ns)
        else:
            cols, nrows = _extend_index(
                cols, nrows, pattern, eid, store, home_node, snapshot,
                meter, counters, resolve, binding_ns)
        apply_filters(plan.filters_at[at])
        if nrows == 0:
            break

    out_vars = query.projected()
    if nrows == 0:
        out_rows: List[Tuple[int, ...]] = []
    elif out_vars:
        out_rows = list(dict.fromkeys(zip(*[cols[v] for v in out_vars])))
    else:
        out_rows = [()]
    offset = query.offset or 0
    if offset:
        out_rows = out_rows[offset:]
    if query.limit is not None:
        out_rows = out_rows[:query.limit]
    return out_vars, out_rows
