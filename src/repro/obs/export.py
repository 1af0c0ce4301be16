"""Chrome trace-event JSON export (and re-import for offline analysis).

:func:`chrome_trace` converts a tracer's recording into the Chrome
trace-event format (``chrome://tracing`` / Perfetto: a ``traceEvents``
list of complete ``"ph": "X"`` events).  Timestamps are **simulated**
microseconds — ``anchor_ms * 1000 + reading_ps / 10**6`` — so the viewer
lays activities out on the simulation's own timeline; every parallel
branch gets its own ``tid`` row so fork-join fan-out is visible.

The exact meter readings ride along in each event's ``args`` (``t0_ps`` /
``t1_ps``, integers), which makes the export lossless:
:func:`spans_from_chrome` reconstructs the original spans, so
critical-path analysis runs identically on a live tracer or a trace file
— what ``scripts/check_trace.py`` relies on.

:func:`validate_chrome_trace` is the schema check used by the obs CI
stage: structural problems are returned as strings (empty = valid).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.obs.trace import Span, Tracer

#: args keys every exported event carries (the lossless span encoding).
_ARG_KEYS = ("sid", "parent", "kind", "track", "t0_ps", "t1_ps",
             "anchor_ms", "group", "critical", "labels")

#: Top-level event keys required by the trace-event format.
_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def chrome_trace(tracer_or_spans) -> Dict:
    """The Chrome trace-event document for a tracer (or span list)."""
    spans: Sequence[Span] = tracer_or_spans.spans \
        if isinstance(tracer_or_spans, Tracer) else tracer_or_spans
    events: List[Dict] = []
    for span in spans:
        record = span.as_dict()
        labels = record.pop("labels")
        events.append({
            "name": span.name,
            "cat": f"{span.cat},{span.kind}",
            "ph": "X",
            "ts": span.anchor_ms * 1e3 + span.t0 / 1e6,
            "dur": span.ps / 1e6,
            "pid": 0,
            "tid": span.track,
            "args": dict(record, labels=labels),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"time_domain": "simulated",
                      "producer": "repro.obs"},
    }


def write_chrome_trace(tracer_or_spans, path: str) -> Dict:
    """Write the export to ``path``; returns the document."""
    document = chrome_trace(tracer_or_spans)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def spans_from_chrome(document: Dict) -> List[Span]:
    """Reconstruct spans from an exported document (lossless inverse)."""
    spans: List[Span] = []
    for event in document.get("traceEvents", []):
        args = event["args"]
        cat, _, kind = event["cat"].partition(",")
        spans.append(Span(
            sid=args["sid"], parent=args["parent"], name=event["name"],
            cat=cat, kind=args["kind"], track=args["track"],
            t0=args["t0_ps"], t1=args["t1_ps"],
            anchor_ms=args["anchor_ms"],
            labels=dict(args.get("labels") or {}),
            group=args.get("group"),
            critical=bool(args.get("critical"))))
    spans.sort(key=lambda span: span.sid)
    return spans


def validate_chrome_trace(document) -> List[str]:
    """Structural schema check; returns problems (empty list = valid)."""
    problems: List[str] = []

    def complain(msg: str) -> None:
        if len(problems) < 50:
            problems.append(msg)

    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, want object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    seen_sids = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            complain(f"{where}: not an object")
            continue
        for key in _EVENT_KEYS:
            if key not in event:
                complain(f"{where}: missing key {key!r}")
        if event.get("ph") != "X":
            complain(f"{where}: ph={event.get('ph')!r}, want 'X'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                complain(f"{where}: {key}={value!r}, want number >= 0")
        args = event.get("args")
        if not isinstance(args, dict):
            complain(f"{where}: args missing or not an object")
            continue
        for key in _ARG_KEYS:
            if key not in args:
                complain(f"{where}: args missing {key!r}")
        sid = args.get("sid")
        if sid in seen_sids:
            complain(f"{where}: duplicate sid {sid}")
        seen_sids.add(sid)
        t0, t1 = args.get("t0_ps"), args.get("t1_ps")
        if isinstance(t0, int) and isinstance(t1, int) and t1 < t0:
            complain(f"{where}: t1_ps {t1} < t0_ps {t0}")
        parent = args.get("parent")
        if parent is not None and parent not in seen_sids:
            complain(f"{where}: parent {parent} not seen before child "
                     f"(sids must be recorded in tree order)")
    return problems
