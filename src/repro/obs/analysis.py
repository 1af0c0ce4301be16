"""Critical-path reconstruction and flame-style rendering of traces.

The critical path of an activity is the chain of spans whose durations
*account for* the activity meter's reported latency: sequential phases on
the root track, plus — at every fork/join section — the branch
``join_parallel`` selected (the first strict maximum, exactly as the
meter folds branches).

Exactness contract: readings are integer picoseconds, so
:func:`critical_path` checks plain integer equalities — each join must
satisfy ``post == pre + critical_branch_ps`` and the segments must sum to
the meter's final reading — and any instrumentation gap or
branch-accounting error breaks one of them.  ``CriticalPath.exact``
reports whether every equality held; the obs CI stage
(``scripts/check_trace.py``) fails when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import ACTIVITY, BRANCH, JOIN, PHASE, Span


@dataclass
class PathSegment:
    """One link of a critical path."""

    name: str
    kind: str  # "seq" (root-track interval) or "branch" (joined branch)
    ps: int
    labels: Dict = field(default_factory=dict)


@dataclass
class CriticalPath:
    """The reconstructed chain for one activity."""

    activity: Span
    segments: List[PathSegment]
    #: The walked total (== activity meter's final reading when exact).
    total_ps: int
    #: Every join equality ``post == pre + critical_branch_ps`` held and
    #: the chain covered the activity without unexplained readings.
    exact: bool
    problems: List[str] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.total_ps / 1_000_000_000


def _index_spans(spans: Sequence[Span]):
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def critical_path(spans: Sequence[Span], activity: Span) -> CriticalPath:
    """Reconstruct the critical path of ``activity`` from its spans."""
    if activity.kind != ACTIVITY:
        raise ValueError(f"not an activity span: {activity!r}")
    children = _index_spans(spans).get(activity.sid, [])
    joins = sorted((s for s in children if s.kind == JOIN),
                   key=lambda s: (s.t0, s.sid))
    branches: Dict[int, List[Span]] = {}
    for span in children:
        if span.kind == BRANCH and span.group is not None:
            branches.setdefault(span.group, []).append(span)

    segments: List[PathSegment] = []
    problems: List[str] = []
    cur = activity.t0
    for join in joins:
        if join.t0 < cur:
            problems.append(
                f"join {join.name!r} starts at {join.t0} before the "
                f"walk reached it ({cur})")
        if join.t0 != cur:
            segments.append(PathSegment(name="seq", kind="seq",
                                        ps=join.t0 - cur))
        cur = join.t0
        group = sorted(branches.get(join.group, []), key=lambda s: s.sid)
        critical = [s for s in group if s.critical]
        if len(critical) != 1:
            problems.append(
                f"join {join.name!r}: {len(critical)} critical branches "
                f"recorded (want exactly 1)")
            cur = join.t1
            continue
        chosen = critical[0]
        # Replay join_parallel's selection: first strict maximum.
        slowest = None
        for span in group:
            if slowest is None or span.t1 > slowest.t1:
                slowest = span
        if slowest is not chosen:
            problems.append(
                f"join {join.name!r}: marked critical branch "
                f"{chosen.name!r} is not the first maximum")
        if cur + chosen.ps != join.t1:
            problems.append(
                f"join {join.name!r}: pre ({cur}) + branch "
                f"({chosen.ps}) != post ({join.t1})")
        segments.append(PathSegment(
            name=f"{join.name}/{chosen.name}", kind="branch",
            ps=chosen.ps, labels=dict(chosen.labels)))
        cur = join.t1
    if activity.t1 < cur:
        problems.append(
            f"activity ends at {activity.t1} before its last join ({cur})")
    if activity.t1 != cur:
        segments.append(PathSegment(name="seq", kind="seq",
                                    ps=activity.t1 - cur))
    total = activity.t0 + sum(segment.ps for segment in segments)
    meter_ps = activity.labels.get("meter_ps")
    if meter_ps is not None and total != meter_ps:
        problems.append(
            f"walked total {total} != recorded meter_ps {meter_ps}")
    return CriticalPath(activity=activity, segments=segments,
                        total_ps=total, exact=not problems,
                        problems=problems)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def render_flame(spans: Sequence[Span], activity: Span,
                 width: int = 40) -> str:
    """Flame-style text rendering of one activity's span tree.

    Each line shows the span's share of the activity as a bar plus exact
    simulated duration; branch spans are indented under their join,
    critical branches marked ``*``.
    """
    total = activity.ns
    by_parent = _index_spans(spans)

    def bar(ns: float) -> str:
        frac = ns / total if total else 0.0
        filled = int(round(frac * width))
        return "#" * filled + "." * (width - filled)

    lines = [f"{activity.name} [{activity.cat}] "
             f"total {_fmt_ns(total)} "
             + " ".join(f"{k}={v}" for k, v in
                        sorted(activity.labels.items())
                        if k != "meter_ps")]
    children = sorted(by_parent.get(activity.sid, []),
                      key=lambda s: (s.t0, s.sid))
    groups: Dict[int, List[Span]] = {}
    for span in children:
        if span.kind == BRANCH and span.group is not None:
            groups.setdefault(span.group, []).append(span)
    for span in children:
        if span.kind == PHASE and span.ns == 0 and span.name != "plan":
            continue
        if span.kind == BRANCH:
            continue  # rendered under their join below
        lines.append(f"  {bar(span.ns)} {_fmt_ns(span.ns):>10} "
                     f"{span.kind}:{span.name}")
        if span.kind == JOIN:
            for branch in sorted(groups.get(span.group, []),
                                 key=lambda s: s.sid):
                marker = "*" if branch.critical else " "
                lines.append(f"   {marker} {bar(branch.ns)} "
                             f"{_fmt_ns(branch.ns):>10} "
                             f"branch:{branch.name}")
    return "\n".join(lines)
