"""Brute-force reference evaluator: the engine-independent row oracle.

Dumps the persistent store's full recorded history — every out-edge
with its insertion snapshot, decoded back to strings — and evaluates
one-shot queries over it by exhaustive join: basic graph patterns,
FILTERs, UNION, OPTIONAL, ``FROM SNAPSHOT`` and quintuple/interval
queries.  Deliberately simple (no planner, no store access, no
charges, its own statement of the interval relations): it shares only
the AST and ``term_number`` with the engine, so a kernel bug cannot
hide in both.  Every frozen kernel case and the stateful model test
compare the engine's rows against this oracle.

Both sides read the *same* store, so compaction's SN coarsening (the GC
frontier reading old insertion SNs as the base snapshot) affects
them identically; tests needing exact deep history run with
scalarization disabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.ids import DIR_OUT, split_key
from repro.sparql.ast import OPEN_END, Query, is_variable
from repro.sparql.evaluate import term_number

#: One recorded fact: ``(subject, predicate, object, insertion_sn)``,
#: all names decoded.
Fact = Tuple[str, str, str, int]


#: The five half-open interval relations ``[s1, e1) op [s2, e2)``, stated
#: here rather than imported from the engine under test.  ``OVERLAPS``
#: is the strict-inequality form, so a zero-width ``[x, x)`` operand
#: (only reachable by variable aliasing) acts as the point ``x``.
INTERVAL_RELATIONS = {
    "OVERLAPS": lambda s1, e1, s2, e2: s1 < e2 and s2 < e1,
    "DURING": lambda s1, e1, s2, e2: s2 <= s1 and e1 <= e2,
    "BEFORE": lambda s1, e1, s2, e2: e1 <= s2,
    "AFTER": lambda s1, e1, s2, e2: e2 <= s1,
    "STARTS": lambda s1, e1, s2, e2: s1 == s2,
}


def dump_history(store) -> List[Fact]:
    """Every out-edge of the persistent store with its insertion SN."""
    strings = store.strings
    facts: List[Fact] = []
    for shard in store.shards:
        for key in shard.iter_keys():
            vid, eid, d = split_key(key)
            if d != DIR_OUT:
                continue
            vids, sns = shard.lookup_versions(key)
            subject = strings.entity_name(vid)
            predicate = strings.predicate_name(eid)
            for object_vid, sn in zip(vids, sns):
                facts.append((subject, predicate,
                              strings.entity_name(object_vid), sn))
    return facts


class _Facts:
    """The visible facts, grouped by what a pattern can already fix."""

    def __init__(self, history: List[Fact], snapshot: int):
        self.by_predicate: Dict[str, List[Fact]] = {}
        self.by_subject: Dict[Tuple[str, str], List[Fact]] = {}
        self.by_object: Dict[Tuple[str, str], List[Fact]] = {}
        for fact in history:
            subject, predicate, obj, sn = fact
            if sn > snapshot:
                continue
            self.by_predicate.setdefault(predicate, []).append(fact)
            self.by_subject.setdefault((predicate, subject), []).append(fact)
            self.by_object.setdefault((predicate, obj), []).append(fact)

    def candidates(self, pattern, row: Dict[str, object]) -> List[Fact]:
        """Facts that can match ``pattern`` under ``row`` (a superset:
        :func:`_match` still checks every term)."""
        subject = row.get(pattern.subject) \
            if is_variable(pattern.subject) else pattern.subject
        if subject is not None:
            return self.by_subject.get((pattern.predicate, subject), [])
        obj = row.get(pattern.object) \
            if is_variable(pattern.object) else pattern.object
        if obj is not None:
            return self.by_object.get((pattern.predicate, obj), [])
        return self.by_predicate.get(pattern.predicate, [])


def _match(pattern, fact: Fact, row: Dict[str, object]
           ) -> Optional[Dict[str, object]]:
    """Extend ``row`` with one pattern/fact match, or None."""
    subject, predicate, obj, sn = fact
    if pattern.predicate != predicate:
        return None
    new = dict(row)
    for term, value in ((pattern.subject, subject), (pattern.object, obj)):
        if is_variable(term):
            if term in new:
                if new[term] != value:
                    return None
            else:
                new[term] = value
        elif term != value:
            return None
    for term, value in ((pattern.ts, sn), (pattern.te, OPEN_END)):
        if term is None:
            continue
        if term in new:
            if new[term] != value:
                return None
        else:
            new[term] = value
    return new


def _extend(rows: List[Dict[str, object]], patterns,
            facts: _Facts) -> List[Dict[str, object]]:
    """Join ``rows`` with every pattern of a group, in written order."""
    for pattern in patterns:
        rows = [new for row in rows
                for fact in facts.candidates(pattern, row)
                for new in (_match(pattern, fact, row),) if new is not None]
        if not rows:
            break
    return rows


def _endpoint(term: str, row: Dict[str, object]) -> int:
    return row[term] if is_variable(term) else int(term)  # type: ignore


def _filter_ok(expr, row: Dict[str, object]) -> bool:
    """Ordinary FILTER semantics over name/int bindings; a variable an
    unmatched OPTIONAL left unbound eliminates the row."""
    if any(var not in row for var in expr.variables()):
        return False

    def operand(term: str) -> object:
        return row[term] if is_variable(term) else term

    left, right = operand(expr.left), operand(expr.right)
    if expr.op in ("=", "!="):
        equal = str(left) == str(right)
        return equal if expr.op == "=" else not equal
    left_num = left if isinstance(left, int) else term_number(str(left))
    right_num = right if isinstance(right, int) else term_number(str(right))
    if left_num is None or right_num is None:
        return False
    if expr.op == "<":
        return left_num < right_num
    if expr.op == "<=":
        return left_num <= right_num
    if expr.op == ">":
        return left_num > right_num
    return left_num >= right_num


def reference_rows(query: Query, history: List[Fact],
                   snapshot: int) -> List[Tuple[object, ...]]:
    """Evaluate ``query`` over ``history`` at ``snapshot``, brute force.

    Mandatory patterns join first; each UNION then concatenates its
    branches' extensions of the current rows; each OPTIONAL group
    left-outer-joins (rows it cannot extend survive, its variables
    unbound); FILTERs run last.  Returns distinct projected rows (graph
    variables as decoded names, interval variables as ints, unbound
    variables as None), in no particular order — compare as sets
    against :func:`decode_result` of the engine's output.
    """
    facts = _Facts(history, snapshot)
    rows = _extend([{}], query.patterns, facts)
    for union in query.unions:
        rows = [new for branch in union
                for new in _extend(rows, branch, facts)]
    for group in query.optionals:
        rows = [new for row in rows
                for new in (_extend([row], group, facts) or [row])]
    rows = [row for row in rows
            if all(_filter_ok(f, row) for f in query.filters)
            and all(INTERVAL_RELATIONS[f.op](_endpoint(f.left_ts, row),
                                             _endpoint(f.left_te, row),
                                             _endpoint(f.right_ts, row),
                                             _endpoint(f.right_te, row))
                    for f in query.interval_filters)]
    out_vars = query.projected()
    seen = set()
    out: List[Tuple[object, ...]] = []
    for row in rows:
        projected = tuple(row.get(v) for v in out_vars)
        if projected not in seen:
            seen.add(projected)
            out.append(projected)
    offset = query.offset or 0
    if offset:
        out = out[offset:]
    if query.limit is not None:
        out = out[:query.limit]
    return out


def decode_result(result, strings, interval_vars) -> List[Tuple[object, ...]]:
    """Decode an engine :class:`ExecutionResult` into reference space:
    graph-variable vids to names (the engine's ``-1`` for a variable an
    OPTIONAL left unbound becomes None), interval variables kept as
    ints."""
    decoded: List[Tuple[object, ...]] = []
    for row in result.rows:
        decoded.append(tuple(
            value if variable in interval_vars
            else None if value < 0 else strings.entity_name(value)
            for variable, value in zip(result.variables, row)))
    return decoded
