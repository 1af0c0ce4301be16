"""Deterministic trace spans keyed to the simulated clock.

A :class:`Tracer` records hierarchical *spans* for engine activities —
one-shot executions (with plan/explore/project phases), continuous window
closes, injection batches, fork-join per-node branches, chaos recovery
intervals.  Span timestamps are **readings of the activity's
LatencyMeter** (integer simulated picoseconds since the activity began,
``meter.ps``), anchored
at the engine clock's millisecond the activity started, so the whole
trace is a pure function of the simulation: two runs of the same workload
produce byte-identical traces.

The zero-simulated-cost invariant: the tracer only *reads* meters
(``meter.ps`` at span boundaries); it never charges them.  Enabling or
disabling tracing therefore cannot move a single simulated picosecond —
guarded by ``tests/obs/test_trace_neutrality.py``, which replays the
golden determinism workload with tracing on.

A tracer records every activity; every instrumentation site is gated on
``tracer is not None``, so the trace-off engine pays one attribute check.

Parallel sections (fork-join branches, injection fan-out) are recorded
through :class:`ParallelGroup`: the group captures the owning meter's
reading before the branches run (``pre``) and after ``join_parallel``
folded them back (``post``), plus one branch span per spawned meter.  The
group re-derives the joined branch exactly as
:meth:`~repro.sim.cost.LatencyMeter.join_parallel` does (first strict
maximum) and marks it ``critical`` — the contract the critical-path
reconstructor (``repro.obs.analysis``) verifies: ``post == pre +
critical_branch.ps``, an integer equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.cost import LatencyMeter

#: Span kinds (the ``kind`` field).
ACTIVITY = "activity"
PHASE = "phase"
JOIN = "join"
BRANCH = "branch"
EVENT = "event"


class Span:
    """One recorded span.

    ``t0``/``t1`` are meter readings (integer simulated ps since the
    owning activity's meter started); ``anchor_ms`` is the simulated clock
    millisecond the activity began, so the absolute simulated position is
    ``anchor_ms * 10**9 + t0`` ps.  ``track`` identifies the meter the
    readings came from (each activity root and each parallel branch gets
    its own track).
    """

    __slots__ = ("sid", "parent", "name", "cat", "kind", "track",
                 "t0", "t1", "anchor_ms", "labels", "group", "critical")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 cat: str, kind: str, track: int, t0: int, t1: int,
                 anchor_ms: int, labels: Optional[Dict] = None,
                 group: Optional[int] = None, critical: bool = False):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.kind = kind
        self.track = track
        self.t0 = t0
        self.t1 = t1
        self.anchor_ms = anchor_ms
        self.labels = labels if labels is not None else {}
        self.group = group
        self.critical = critical

    @property
    def ps(self) -> int:
        return self.t1 - self.t0

    @property
    def ns(self) -> float:
        return self.ps / 1_000

    def as_dict(self) -> dict:
        """JSON-safe form (sorted labels; exact integer readings)."""
        return {
            "sid": self.sid, "parent": self.parent, "name": self.name,
            "cat": self.cat, "kind": self.kind, "track": self.track,
            "t0_ps": self.t0, "t1_ps": self.t1,
            "anchor_ms": self.anchor_ms,
            "labels": dict(sorted(self.labels.items())),
            "group": self.group, "critical": self.critical,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.kind}:{self.name} track={self.track} "
                f"[{self.t0}, {self.t1}) ps)")


class ParallelGroup:
    """One fork/join section inside an activity."""

    __slots__ = ("activity", "gid", "name", "pre", "post", "_branches")

    def __init__(self, activity: "Activity", gid: int, name: str):
        self.activity = activity
        self.gid = gid
        self.name = name
        #: Owning meter's reading when the group opened.
        self.pre = activity.meter.ps if activity.meter is not None else 0
        self.post: Optional[int] = None
        self._branches: List[Span] = []

    def branch(self, name: str, branch_meter: LatencyMeter,
               **labels) -> None:
        """Record one completed parallel branch (call after its work)."""
        activity = self.activity
        tracer = activity.tracer
        span = Span(
            sid=tracer._next_sid(), parent=activity.root.sid, name=name,
            cat=activity.root.cat, kind=BRANCH, track=tracer._next_track(),
            t0=0, t1=branch_meter.ps, anchor_ms=activity.root.anchor_ms,
            labels=labels, group=self.gid)
        self._branches.append(span)
        tracer.spans.append(span)

    def close(self) -> None:
        """Seal the group after ``join_parallel`` folded the branches.

        Replicates join_parallel's selection (first strict maximum) to
        mark the critical branch, and records one JOIN span on the
        activity's root track covering ``[pre, post)``.
        """
        activity = self.activity
        self.post = activity.meter.ps if activity.meter is not None else 0
        # The next phase mark starts after the join, not inside it.
        activity._last_mark = self.post
        if not self._branches:
            # join_parallel([]) is a no-op (pre == post): no JOIN span.
            return
        slowest: Optional[Span] = None
        for span in self._branches:
            if slowest is None or span.t1 > slowest.t1:
                slowest = span
        if slowest is not None:
            slowest.critical = True
        tracer = activity.tracer
        tracer.spans.append(Span(
            sid=tracer._next_sid(), parent=activity.root.sid,
            name=self.name, cat=activity.root.cat, kind=JOIN,
            track=activity.root.track, t0=self.pre, t1=self.post,
            anchor_ms=activity.root.anchor_ms,
            labels={"branches": len(self._branches)}, group=self.gid))


class Activity:
    """A live traced activity: one query execution, injection, recovery."""

    __slots__ = ("tracer", "meter", "root", "_last_mark", "_closed")

    def __init__(self, tracer: "Tracer", root: Span,
                 meter: Optional[LatencyMeter]):
        self.tracer = tracer
        self.meter = meter
        self.root = root
        self._last_mark = root.t0
        self._closed = False

    def mark(self, name: str, **labels) -> None:
        """Close one phase: a span from the previous mark to the meter's
        current reading, on the activity's root track."""
        now = self.meter.ps if self.meter is not None else 0
        tracer = self.tracer
        tracer.spans.append(Span(
            sid=tracer._next_sid(), parent=self.root.sid, name=name,
            cat=self.root.cat, kind=PHASE, track=self.root.track,
            t0=self._last_mark, t1=now, anchor_ms=self.root.anchor_ms,
            labels=labels))
        self._last_mark = now

    def group(self, name: str) -> ParallelGroup:
        """Open a fork/join section (close() it after join_parallel)."""
        group = ParallelGroup(self, self.tracer._next_gid(), name)
        self._last_mark = group.pre
        return group

    def label(self, **labels) -> None:
        """Attach labels to the activity's root span."""
        self.root.labels.update(labels)

    def end(self) -> None:
        """Seal the activity: the root span closes at the meter's final
        reading, which *is* the activity's simulated latency."""
        if self._closed:
            return
        self._closed = True
        self.root.t1 = self.meter.ps if self.meter is not None else 0
        self.root.labels.setdefault("meter_ps", self.root.t1)
        self.tracer._pop(self)


class Tracer:
    """Span recorder for one engine (attach via ``engine.tracer``)."""

    def __init__(self, clock=None):
        #: Optional VirtualClock used to anchor activities; without one,
        #: callers pass ``anchor_ms`` explicitly (or spans anchor at 0).
        self.clock = clock
        self.spans: List[Span] = []
        self._sid = 0
        self._track = 0
        self._gid = 0
        self._stack: List[Activity] = []

    # -- id allocation ----------------------------------------------------
    def _next_sid(self) -> int:
        self._sid += 1
        return self._sid

    def _next_track(self) -> int:
        self._track += 1
        return self._track

    def _next_gid(self) -> int:
        self._gid += 1
        return self._gid

    # -- activity lifecycle -----------------------------------------------
    def begin(self, name: str, cat: str,
              meter: Optional[LatencyMeter] = None,
              anchor_ms: Optional[int] = None,
              **labels) -> Activity:
        """Start an activity.

        Nested begins attach to the enclosing activity (the span tree
        mirrors the call tree).
        """
        if anchor_ms is None:
            anchor_ms = self.clock.now_ms if self.clock is not None else 0
        parent = self._stack[-1].root.sid if self._stack else None
        start = meter.ps if meter is not None else 0
        root = Span(
            sid=self._next_sid(), parent=parent, name=name, cat=cat,
            kind=ACTIVITY, track=self._next_track(), t0=start, t1=start,
            anchor_ms=anchor_ms, labels=labels)
        self.spans.append(root)
        activity = Activity(self, root, meter)
        self._stack.append(activity)
        return activity

    @property
    def current(self) -> Optional[Activity]:
        """The innermost live activity (None when nothing is traced)."""
        return self._stack[-1] if self._stack else None

    def _pop(self, activity: Activity) -> None:
        if self._stack and self._stack[-1] is activity:
            self._stack.pop()

    def event_span(self, name: str, cat: str, ps: int,
                   anchor_ms: Optional[int] = None, **labels) -> Span:
        """Record one already-completed interval (e.g. a chaos recovery
        whose meter only exists after the fact)."""
        if anchor_ms is None:
            anchor_ms = self.clock.now_ms if self.clock is not None else 0
        span = Span(
            sid=self._next_sid(), parent=None, name=name, cat=cat,
            kind=EVENT, track=self._next_track(), t0=0, t1=ps,
            anchor_ms=anchor_ms, labels=labels)
        self.spans.append(span)
        return span

    # -- queries over the recording ----------------------------------------
    def activities(self, name: Optional[str] = None,
                   cat: Optional[str] = None) -> List[Span]:
        """Recorded activity root spans, optionally filtered."""
        return [span for span in self.spans
                if span.kind == ACTIVITY
                and (name is None or span.name == name)
                and (cat is None or span.cat == cat)]

    def children(self, sid: int) -> List[Span]:
        return [span for span in self.spans if span.parent == sid]

    def __len__(self) -> int:
        return len(self.spans)
