"""Durable checkpoints on disk and cold-start recovery.

§5's full recovery recipe: "Wukong+S will reload initial RDF data first and
then all durable checkpoints in a proper order.  The latest stream index
and the transient store will be reloaded if needed.  Wukong+S will further
re-register continuous queries and the latest local and stable vector
timestamps."

:func:`save_engine` serializes everything durable — the engine
configuration, the initially stored triples, the per-batch ingestion log
(decoded to strings, so the dump is portable), the SN plan, the
registered continuous queries and the clock — into one JSON file.
:func:`restore_engine` rebuilds a fresh engine from it: replaying the
log through the normal injection pipeline reconstructs the persistent
store, the stream indexes *and* the transient stores with identical
content (IDs re-allocate deterministically because the replay
order equals the original insertion order).  The caller re-attaches stream
sources afterwards and resumes from the recovered clock.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import FaultToleranceError
from repro.rdf.terms import TimedTuple, Triple
from repro.sim.cost import CostModel, MemoryModel
from repro.sparql.ast import (Aggregate, FilterExpr, Query, TriplePattern,
                              WindowSpec)
from repro.streams.stream import StreamBatch, StreamSchema

#: 2: the whole EngineConfig (version 1 dumped ten of its fields).
FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Query (de)serialization
# ---------------------------------------------------------------------------

def _dump_patterns(patterns: List[TriplePattern]) -> List[list]:
    return [[p.subject, p.predicate, p.object, p.graph] for p in patterns]


def _load_patterns(rows: List[list]) -> List[TriplePattern]:
    return [TriplePattern(s, p, o, graph=g) for s, p, o, g in rows]


def query_to_dict(query: Query) -> dict:
    """A JSON-safe dump of a parsed query (for the registration log)."""
    return {
        "select": list(query.select),
        "patterns": _dump_patterns(query.patterns),
        "optionals": list(map(_dump_patterns, query.optionals)),
        "unions": [list(map(_dump_patterns, union))
                   for union in query.unions],
        "windows": {name: [w.range_ms, w.step_ms]
                    for name, w in query.windows.items()},
        "static_graphs": list(query.static_graphs),
        "name": query.name,
        "filters": [[f.left, f.op, f.right] for f in query.filters],
        "aggregates": [[a.func, a.var, a.alias] for a in query.aggregates],
        "group_by": list(query.group_by),
        "limit": query.limit,
        "offset": query.offset,
        "is_ask": query.is_ask,
    }


def query_from_dict(data: dict) -> Query:
    """Rebuild a query from :func:`query_to_dict` output."""
    return Query(
        select=list(data["select"]),
        patterns=_load_patterns(data["patterns"]),
        optionals=list(map(_load_patterns, data.get("optionals", []))),
        unions=[list(map(_load_patterns, union))
                for union in data.get("unions", [])],
        windows={name: WindowSpec(r, s)
                 for name, (r, s) in data["windows"].items()},
        static_graphs=list(data["static_graphs"]),
        name=data["name"],
        filters=[FilterExpr(left, op, right)
                 for left, op, right in data.get("filters", [])],
        aggregates=[Aggregate(func, var, alias)
                    for func, var, alias in data.get("aggregates", [])],
        group_by=list(data.get("group_by", [])),
        limit=data.get("limit"),
        offset=data.get("offset", 0),
        is_ask=data.get("is_ask", False),
    )


# ---------------------------------------------------------------------------
# Engine (de)serialization
# ---------------------------------------------------------------------------

def _decode_batch_log(engine: WukongSEngine) -> List[dict]:
    """Group the durable log into per-(stream, batch) replayable records.

    The out-edge halves across nodes partition the batch's tuples exactly
    once, so their union reconstructs the original batch content.
    """
    if engine.checkpoints is None:
        raise FaultToleranceError(
            "engine has no durable log; enable fault_tolerance in "
            "EngineConfig before saving")
    strings = engine.strings
    grouped: Dict[tuple, dict] = {}
    for entry in engine.checkpoints._log:
        nb = entry.node_batch
        key = (nb.stream, nb.batch_no)
        record = grouped.setdefault(key, {
            "stream": nb.stream, "batch_no": nb.batch_no, "sn": entry.sn,
            "timeless": [], "timing": [],
        })
        for name, columns in (("timeless", nb.out_timeless),
                              ("timing", nb.out_timing)):
            record[name].extend(map(list, zip(
                strings.entity_names(columns.s),
                map(strings.predicate_name, columns.p),
                strings.entity_names(columns.o),
                columns.ts)))
    # Replay order must respect global snapshot order (per-key SN
    # appends are monotonic), then stream/batch order within a snapshot.
    return [grouped[key] for key in
            sorted(grouped, key=lambda k: (grouped[k]["sn"], k))]


def save_engine(engine: WukongSEngine, path: str) -> None:
    """Serialize the engine's durable state to ``path`` (JSON)."""
    data = {
        "version": FORMAT_VERSION,
        # Every EngineConfig field, cost and memory models as their own
        # field dicts.
        "config": dataclasses.asdict(engine.config),
        "schemas": [
            {"name": schema.name,
             "timing": sorted(schema.timing_predicates)}
            for schema in engine.schemas.values()
        ],
        "static": [[t.subject, t.predicate, t.object]
                   for t in engine._initial_triples],
        "log": _decode_batch_log(engine),
        "plan": [dict(m.upper) for m in engine.coordinator.plan._mappings],
        "queries": [
            {"query": query_to_dict(handle.query),
             "home_node": handle.home_node,
             "next_close_ms": handle.next_close_ms}
            for handle in engine.continuous.queries.values()
        ],
        "clock_ms": engine.clock.now_ms,
        "last_delivered": dict(engine._last_delivered),
        # Attachment order of the stream sources.  The sources themselves
        # live upstream and are not serialized, but the *order* they were
        # attached in is part of the engine's durable identity: restore
        # must re-attach in this order so a saved-restored-saved engine
        # round-trips bit-identically.
        "sources": list(engine.sources),
    }
    with open(path, "w") as handle:
        json.dump(data, handle)


def restore_engine(path: str, sources: Optional[List] = None
                   ) -> WukongSEngine:
    """Cold-start recovery: rebuild an engine from :func:`save_engine`.

    Stream sources are *not* part of the durable state (they live
    upstream), but their attachment order is recorded in the dump: pass
    the live :class:`~repro.streams.source.StreamSource` objects via
    ``sources`` (any iteration order) and they are re-attached in the
    *saved* order — earlier versions left re-attachment to the caller,
    which silently lost the order and broke save/restore idempotence.
    Sources for streams unknown to the dump are attached afterwards in
    name order, deterministically.  Continuous queries are re-registered
    with their original home nodes and execution schedules.
    """
    with open(path) as handle:
        data = json.load(handle)
    if data.get("version") != FORMAT_VERSION:
        raise FaultToleranceError(
            f"unsupported checkpoint version: {data.get('version')}")

    saved = data["config"]
    config = EngineConfig(**{**saved, "cost": CostModel(**saved["cost"]),
                             "memory": MemoryModel(**saved["memory"])})
    schemas = [StreamSchema(item["name"], frozenset(item["timing"]))
               for item in data["schemas"]]
    engine = WukongSEngine(schemas=schemas, config=config)

    # 1. Initial data, in original order (deterministic ID re-allocation).
    engine.load_static(Triple(*t) for t in data["static"])

    # 2. The announced SN plan, so replayed batches land in their
    #    original snapshots.
    plan = engine.coordinator.plan
    plan._mappings.clear()
    for upper in data["plan"]:
        plan.publish(upper)

    # 3. Replay the durable log through the normal injection pipeline:
    #    this rebuilds the persistent store, stream indexes, transient
    #    stores and every node's Local_VTS.
    for record in data["log"]:
        interval = config.batch_interval_ms
        start = config.stream_start_ms + (record["batch_no"] - 1) * interval
        batch = StreamBatch(record["stream"], record["batch_no"], start,
                            start + interval)
        for s, p, o, ts in record["timeless"] + record["timing"]:
            batch.add(TimedTuple(Triple(s, p, o), ts))
        batch.tuples.sort(key=lambda t: t.timestamp_ms)
        engine._inject_batch(batch, record["sn"])
        engine._last_delivered[record["stream"]] = record["batch_no"]
    for stream, batch_no in data["last_delivered"].items():
        engine._last_delivered[stream] = max(
            engine._last_delivered.get(stream, 0), batch_no)
    engine.coordinator.advance(engine.store)

    # 4. Clock, then the continuous queries with their schedules.
    engine.clock.advance_to(data["clock_ms"])
    for item in data["queries"]:
        handle = engine.register_continuous(
            query_from_dict(item["query"]), home_node=item["home_node"])
        handle.next_close_ms = item["next_close_ms"]

    # 5. Re-attach the live sources in the recorded attachment order.
    if sources:
        by_name = {source.schema.name: source for source in sources}
        for name in data.get("sources", []):
            source = by_name.pop(name, None)
            if source is not None:
                engine.attach_source(source)
        for name in sorted(by_name):
            engine.attach_source(by_name[name])

    # 6. Drop whatever the recovered windows can no longer reach.
    engine.gc.run(engine.clock.now_ms)
    return engine
