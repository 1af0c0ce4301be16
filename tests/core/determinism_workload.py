"""A fixed, seeded workload whose simulated latencies are golden-recorded.

Wall-clock optimizations (compiled binding rows, skip-indexed stream
lookups, aggregated cost accounting) must never change *simulated*
nanoseconds — that invariant is what keeps every calibrated figure valid.
This module drives a deterministic scenario through every hot path of the
engine and captures the exact simulated latency and per-category breakdown
of each query execution and injected batch.  The recorded values live in
``golden_determinism.json``; ``test_determinism.py`` replays the workload
and asserts integer equality (picoseconds) against them.

Coverage: constant-start and index-start continuous queries, FILTER
pruning, aggregation, UNION and OPTIONAL groups, timing predicates (the
transient store), one-shot queries under contention, time-scoped one-shot
queries, injection/indexing accounting, GC — on both the RDMA and the TCP
fabric (in-place, fork-join and migrating execution modes).

Regenerate the golden file only when the *cost model itself* changes (a
calibration change, never an optimization):

    PYTHONPATH=src:tests python -m core.determinism_workload --write
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_determinism.json")

#: Ticks the simulation runs (at a 100 ms batch interval).
TICKS = 60

NUM_USERS = 12


def _static_triples() -> str:
    lines = []
    for i in range(NUM_USERS):
        lines.append(f"u{i} ty {'XMen' if i % 3 else 'Human'} .")
        lines.append(f"u{i} fo u{(i + 1) % NUM_USERS} .")
        lines.append(f"u{i} fo u{(i + 5) % NUM_USERS} .")
        lines.append(f"u{i} livesIn city{i % 4} .")
    return "\n".join(lines)


def _tweet_tuples() -> str:
    lines = []
    for t in range(1, TICKS + 1):
        at = 100 * (t - 1) + 10
        user = t % NUM_USERS
        lines.append(f"u{user} po p{t} @{at}")
        lines.append(f"p{t} ht tag{t % 3} @{at + 5}")
        lines.append(f"p{t} score {t % 7} @{at + 6}")
        # ``ga`` is a timing predicate: these go to the transient store.
        lines.append(f"p{t} ga loc{t % 4} @{at + 20}")
    return "\n".join(lines)


def _like_tuples() -> str:
    lines = []
    for t in range(3, TICKS + 1):
        at = 100 * (t - 1) + 40
        lines.append(f"u{(t + 3) % NUM_USERS} li p{t - 2} @{at}")
        if t % 4 == 0:
            lines.append(f"u{(t + 7) % NUM_USERS} li p{t - 1} @{at + 9}")
    return "\n".join(lines)


CONTINUOUS_QUERIES = {
    # Constant-free join across two windows and stored data (QC shape).
    "QJ": """
        REGISTER QUERY QJ AS
        SELECT ?X ?Y ?Z
        FROM Tweet_Stream [RANGE 2s STEP 500ms]
        FROM Like_Stream [RANGE 1s STEP 500ms]
        FROM Static
        WHERE {
          GRAPH Tweet_Stream { ?X po ?Z }
          GRAPH Static { ?X fo ?Y }
          GRAPH Like_Stream { ?Y li ?Z }
        }
    """,
    # FILTER pruning mid-exploration.
    "QF": """
        REGISTER QUERY QF AS
        SELECT ?P ?S
        FROM Tweet_Stream [RANGE 1s STEP 300ms]
        WHERE { GRAPH Tweet_Stream { ?P score ?S . FILTER (?S >= 3) } }
    """,
    # Aggregation over an index-start window pattern.
    "QA": """
        REGISTER QUERY QA AS
        SELECT ?H COUNT(?P) AS ?N
        FROM Tweet_Stream [RANGE 3s STEP 500ms]
        WHERE { GRAPH Tweet_Stream { ?P ht ?H } }
        GROUP BY ?H
    """,
    # Timing predicate: served by the transient store.
    "QG": """
        REGISTER QUERY QG AS
        SELECT ?P ?L
        FROM Tweet_Stream [RANGE 1s STEP 400ms]
        WHERE { GRAPH Tweet_Stream { ?P ga ?L } }
    """,
    # UNION over stored alternatives joined with a window.
    "QU": """
        REGISTER QUERY QU AS
        SELECT ?X ?Z
        FROM Tweet_Stream [RANGE 1s STEP 500ms]
        FROM Static
        WHERE {
          GRAPH Tweet_Stream { ?X po ?Z }
          { GRAPH Static { ?X ty XMen } } UNION
          { GRAPH Static { ?X ty Human } }
        }
    """,
    # OPTIONAL group leaving some rows unbound.
    "QO": """
        REGISTER QUERY QO AS
        SELECT ?X ?Z ?W
        FROM Like_Stream [RANGE 1s STEP 500ms]
        FROM Static
        WHERE {
          GRAPH Like_Stream { ?X li ?Z }
          OPTIONAL { GRAPH Static { ?X livesIn ?W } }
        }
    """,
}

ONESHOT_QUERIES = {
    # Constant start over evolving stored data.
    "O1": "SELECT ?X WHERE { u1 fo ?X }",
    # Index start over streamed timeless data in the persistent store.
    "O2": "SELECT ?U ?P WHERE { ?U po ?P . ?P ht tag1 }",
}

TIME_SCOPED_QUERY = """
    SELECT ?U ?P
    FROM Tweet_Stream [RANGE 1s STEP 1s]
    WHERE { GRAPH Tweet_Stream { ?U po ?P } }
"""


def _build_engine(use_rdma: bool, tracing: bool = False) -> WukongSEngine:
    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          use_rdma=use_rdma, gc_every_ticks=10,
                          gc_retention_ms=4_000, tracing=tracing)
    engine = WukongSEngine(
        schemas=[StreamSchema("Tweet_Stream", frozenset({"ga"})),
                 StreamSchema("Like_Stream")],
        config=config)
    engine.load_static(parse_triples(_static_triples()))
    tweets = StreamSource(engine.schemas["Tweet_Stream"])
    tweets.queue_tuples(parse_timed_tuples(_tweet_tuples()), 0, 100)
    likes = StreamSource(engine.schemas["Like_Stream"])
    likes.queue_tuples(parse_timed_tuples(_like_tuples()), 0, 100)
    engine.attach_source(tweets)
    engine.attach_source(likes)
    return engine


def _meter_facts(meter) -> List:
    """The exact simulated facts of one meter: [ps, breakdown_ps]."""
    return [meter.ps, dict(sorted(meter.breakdown_ps.items()))]


def _run_variant(use_rdma: bool, tracing: bool = False) -> Dict:
    engine = _build_engine(use_rdma, tracing=tracing)
    handles = {name: engine.register_continuous(text)
               for name, text in CONTINUOUS_QUERIES.items()}
    oneshots: List = []
    for tick in range(1, TICKS + 1):
        engine.step()
        if tick % 5 == 0 and tick >= 20:
            for label, text in ONESHOT_QUERIES.items():
                record = engine.oneshot(text)
                oneshots.append([engine.clock.now_ms, label,
                                 len(record.result.rows)]
                                + _meter_facts(record.meter))
    time_scoped = []
    for start_ms, end_ms in ((4_500, 5_500), (5_000, 6_000)):
        record = engine.oneshot_time_scoped(TIME_SCOPED_QUERY,
                                            start_ms, end_ms)
        time_scoped.append([start_ms, end_ms, len(record.result.rows)]
                           + _meter_facts(record.meter))
    continuous = {
        name: [[rec.close_ms, len(rec.result.rows)] + _meter_facts(rec.meter)
               for rec in handle.executions]
        for name, handle in handles.items()
    }
    injection = [[rec.stream, rec.batch_no, rec.num_tuples]
                 + _meter_facts(rec.meter)
                 for rec in engine.injection_records]
    return {"continuous": continuous, "oneshot": oneshots,
            "time_scoped": time_scoped, "injection": injection}


def run_workload(tracing: bool = False) -> Dict:
    """Run the full deterministic scenario; returns all simulated facts.

    ``tracing`` replays the same workload with the observability tracer
    attached — the facts must be bit-identical either way (the tracer only
    reads meters; see ``tests/obs/test_trace_neutrality.py``).
    """
    return {"rdma": _run_variant(use_rdma=True, tracing=tracing),
            "tcp": _run_variant(use_rdma=False, tracing=tracing)}


def main() -> None:
    import sys
    facts = run_workload()
    if "--write" in sys.argv:
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(facts, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        executions = sum(len(execs)
                         for variant in facts.values()
                         for execs in variant["continuous"].values())
        print(f"continuous executions: {executions}")


if __name__ == "__main__":
    main()
