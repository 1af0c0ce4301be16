"""Brute-force reference evaluator for the benchmark's output check.

Independent of the program under test: it sees only the triples the
generator emitted and the query *text*, and imports nothing from
``repro`` (no store, no planner, no parser).  A query here is a basic
graph pattern — the only shape S1-S6 and the stream-only L1/L4 use — so
evaluation is nested-loop matching over per-predicate edge lists, one
pattern after another in the order written.  Quadratic in the worst
case, which is why ``run.py`` times it apart as ``driver.oracle_s``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Edge = Tuple[str, str, str]
Pattern = Tuple[str, str, str]

_SELECT = re.compile(r"SELECT\s+((?:\?\w+\s+)+)", re.S)
_TRIPLE = re.compile(r"([?\w]+)\s+(\w+)\s+([?\w]+)")


def parse_bgp(text: str) -> Tuple[List[str], List[Pattern]]:
    """``(projected variables, triple patterns)`` of a BGP query text."""
    select = _SELECT.search(text)
    if select is None:
        raise ValueError(f"not a SELECT query: {text!r}")
    variables = select.group(1).split()
    body = text[text.index("WHERE") + len("WHERE"):]
    body = re.sub(r"GRAPH\s+[\w-]+", " ", body)
    body = body.replace("{", " ").replace("}", " ")
    patterns = [m.groups() for clause in body.split(" . ")
                for m in [_TRIPLE.search(clause)] if m is not None]
    if not patterns:
        raise ValueError(f"no triple patterns in: {text!r}")
    return variables, patterns


class Graph:
    """A set of triples with per-predicate subject/object edge lists."""

    def __init__(self, triples: Iterable[Edge]):
        self.by_subject: Dict[str, Dict[str, List[str]]] = defaultdict(
            lambda: defaultdict(list))
        self.by_object: Dict[str, Dict[str, List[str]]] = defaultdict(
            lambda: defaultdict(list))
        self.edges: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        for s, p, o in set(triples):
            self.by_subject[p][s].append(o)
            self.by_object[p][o].append(s)
            self.edges[p].append((s, o))

    def extend(self, pattern: Pattern, slots: Dict[str, int],
               rows: List[Tuple[str, ...]]) -> List[Tuple[str, ...]]:
        """Join ``rows`` (tuples laid out by ``slots``) with ``pattern``;
        variables it binds for the first time get the next slots."""
        s, p, o = pattern
        out_of = self.by_subject[p]
        into = self.by_object[p]

        def term(name: str, row: Tuple[str, ...]):
            if not name.startswith("?"):
                return name
            return row[slots[name]] if name in slots else None

        extended: List[Tuple[str, ...]] = []
        for row in rows:
            s_val, o_val = term(s, row), term(o, row)
            if s_val is not None and o_val is not None:
                if o_val in out_of.get(s_val, ()):
                    extended.append(row)
            elif s_val is not None:
                extended.extend(row + (v,) for v in out_of.get(s_val, ()))
            elif o_val is not None:
                extended.extend(row + (v,) for v in into.get(o_val, ()))
            elif s == o:
                extended.extend(row + (a,) for a, b in self.edges[p]
                                if a == b)
            else:
                extended.extend(row + edge for edge in self.edges[p])
        for name in (s, o):
            if name.startswith("?") and name not in slots:
                slots[name] = len(slots)
        return extended

    def evaluate(self, text: str) -> List[Tuple[str, ...]]:
        """Sorted projected solutions of the BGP query ``text``."""
        variables, patterns = parse_bgp(text)
        slots: Dict[str, int] = {}
        rows: List[Tuple[str, ...]] = [()]
        for pattern in patterns:
            rows = self.extend(pattern, slots, rows)
        picks = [slots[v] for v in variables]
        return sorted(tuple(row[i] for i in picks) for row in rows)


def window_graph(tuples: Sequence, close_ms: int, range_ms: int) -> Graph:
    """The graph of the stream ``tuples`` (``(triple, timestamp_ms)``
    pairs) with a timestamp in ``[close_ms - range_ms, close_ms)``."""
    return Graph(triple for triple, ts in tuples
                 if close_ms - range_ms <= ts < close_ms)
