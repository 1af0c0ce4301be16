"""Durable checkpoints on disk and cold-start recovery.

§5's full recovery recipe: "Wukong+S will reload initial RDF data first and
then all durable checkpoints in a proper order.  The latest stream index
and the transient store will be reloaded if needed.  Wukong+S will further
re-register continuous queries and the latest local and stable vector
timestamps."

Cold start is recovery of every node: :func:`save_engine` writes the
durable base and the durable log's own records, and :func:`restore_engine`
writes the base and replays every record through
:func:`~repro.core.checkpoint.replay_log`, the replay that recovers one
crashed node, rebuilding the stream index alongside.

Dump format 5 (one JSON file) holds:

* the whole :class:`EngineConfig`, the stream schemas, the SN plan, the
  clock, ``last_delivered`` and the source attachment order;
* the string server's name tables (an id is its position);
* ``base``: the initially stored data as int ``[s, p, o]`` columns
  (:attr:`~repro.core.checkpoint.CheckpointManager.base`);
* every :class:`~repro.core.checkpoint.LoggedBatch` in sequence order:
  node, SN, stream, batch number, the four halves as int columns and its
  CRC (a record that no longer matches it is rebuilt from upstream
  backup, or refused);
* the tick count (the GC cadence) and the checkpoint cadence and markers;
* per continuous query: the text it was parsed from (the parser is the
  one authority on a saved query), registration name, home node, next
  close, plan order, ``pinned`` and the plan monitor's cadence, relative
  to the query's executions.

Not durable: per-process meters (``injection_records``, each query's
``executions`` and re-plan events, logging delays: a restored engine's
hold only post-restore work) and wall-clock caches.  A query registered
from a hand-built AST has no text, and :func:`save_engine` refuses it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional

from repro.core.checkpoint import CheckpointMarker, LoggedBatch, replay_log
from repro.core.dispatcher import NodeBatch
from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import FaultToleranceError
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel
from repro.streams.stream import StreamSchema

#: 5: the base as int columns (4 held string triples, 3 six settings since
#: made constants, 2 string-decoded batches and hand-serialized ASTs).
FORMAT_VERSION = 5

#: A node batch's four halves, in record order.
_HALVES = ("out_timeless", "in_timeless", "out_timing", "in_timing")


def _saved_settings(cls, saved: dict):
    """Rebuild a settings dataclass, refusing keys it does not have."""
    unknown = set(saved) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise FaultToleranceError(
            f"checkpoint {cls.__name__} has unknown settings: "
            f"{sorted(unknown)}")
    return cls(**saved)


def _dump_record(entry: LoggedBatch) -> dict:
    node_batch = entry.node_batch
    return {"node": node_batch.node_id, "sn": entry.sn,
            "stream": node_batch.stream, "batch_no": node_batch.batch_no,
            "halves": [[half.s, half.p, half.o, half.ts] for half in
                       (getattr(node_batch, name) for name in _HALVES)],
            "checksum": entry.checksum}


def _load_record(item: dict) -> LoggedBatch:
    halves = {name: EncodedColumns(*columns)
              for name, columns in zip(_HALVES, item["halves"])}
    return LoggedBatch(item["sn"], NodeBatch(
        item["stream"], item["batch_no"], item["node"], **halves),
        item["checksum"])


def _load_base(data: dict) -> EncodedColumns:
    """The dump's base, refused unless it is three equal columns of ids
    the restored name tables allocated (it has no CRC to check)."""
    base = data["base"]
    entities, predicates = len(data["entities"]), len(data["predicates"])
    if len(base) != 3 or len({len(column) for column in base}) > 1 or not all(
            type(v) is int and 0 < v < size
            for column, size in zip(base, (entities, predicates, entities))
            for v in column):
        raise FaultToleranceError("checkpoint base is not three equal "
                                  "columns of allocated ids")
    return EncodedColumns(*base, [0] * len(base[0]))


def _dump_query(handle) -> dict:
    if handle.query.text is None:
        raise FaultToleranceError(
            f"continuous query {handle.name!r} was registered from a "
            f"hand-built AST; only a query registered as text can be saved")
    done = len(handle.executions)
    last_swap = handle.closes_at_last_swap
    return {"text": handle.query.text, "name": handle.name,
            "home_node": handle.home_node,
            "next_close_ms": handle.next_close_ms,
            "plan_order": list(handle.plan_order), "pinned": handle.pinned,
            "closes_at_last_check": handle.closes_at_last_check - done,
            "closes_at_last_swap":
                None if last_swap is None else last_swap - done}


def save_engine(engine: WukongSEngine, path: str) -> None:
    """Serialize the engine's durable state to ``path`` (JSON)."""
    manager = engine.checkpoints
    if manager is None:
        raise FaultToleranceError(
            "engine has no durable log; enable fault_tolerance in "
            "EngineConfig before saving")
    entities, predicates = engine.strings.name_tables()
    data = {
        "version": FORMAT_VERSION,
        # Every EngineConfig field, cost and memory models as their own
        # field dicts.
        "config": dataclasses.asdict(engine.config),
        "schemas": [[schema.name, sorted(schema.timing_predicates)]
                    for schema in engine.schemas.values()],
        "entities": entities,
        "predicates": predicates,
        "base": [manager.base.s, manager.base.p, manager.base.o],
        "log": list(map(_dump_record, manager._log)),
        "plan": [dict(m.upper) for m in engine.coordinator.plan._mappings],
        "queries": list(map(_dump_query, engine.continuous.queries.values())),
        "clock_ms": engine.clock.now_ms,
        "ticks": engine._ticks,
        "checkpoint_cell": manager._last_cell,
        "entries_since_checkpoint": manager._entries_since_checkpoint,
        "markers": list(map(dataclasses.asdict, manager._markers)),
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
    *saved* order, before the replay, so a corrupt record can be rebuilt
    from their upstream backup.  Sources for streams unknown to the dump
    are attached afterwards in name order, deterministically.  Continuous
    queries are re-registered from their texts under their names, home
    nodes and plan orders, with their execution schedules.
    """
    with open(path) as handle:
        data = json.load(handle)
    if data.get("version") != FORMAT_VERSION:
        raise FaultToleranceError(
            f"unsupported checkpoint version: {data.get('version')}")

    saved = data["config"]
    config = _saved_settings(EngineConfig, {
        **saved, "cost": _saved_settings(CostModel, saved["cost"]),
        "memory": _saved_settings(MemoryModel, saved["memory"])})
    schemas = [StreamSchema(name, frozenset(timing))
               for name, timing in data["schemas"]]
    engine = WukongSEngine(schemas=schemas, config=config)

    # 1. Every id as allocated, then the initial data in original order.
    engine.strings.load_name_tables(data["entities"], data["predicates"])
    manager = engine.checkpoints
    manager.keep_base(_load_base(data))
    engine.store.insert_columns(manager.base)

    # 2. The announced SN plan, so replayed batches land in their
    #    original snapshots.
    plan = engine.coordinator.plan
    plan._mappings.clear()
    for upper in data["plan"]:
        plan.publish(upper)

    # 3. Re-attach the live sources in the recorded attachment order.
    by_name = {source.schema.name: source for source in sources or ()}
    known = [name for name in data["sources"] if name in by_name]
    for name in known + sorted(set(by_name) - set(known)):
        engine.attach_source(by_name[name])

    # 4. Recovery's replay over every node's records, with one index
    #    slice per batch; then every node's Local_VTS and the ingestion
    #    counters the records account for.
    manager._log = list(map(_load_record, data["log"]))
    slices: dict = {}
    replay_log(engine, manager._log, slices, LatencyMeter())
    for entry in manager._log:
        node_batch = entry.node_batch
        stream, node_id = node_batch.stream, node_batch.node_id
        engine.coordinator.on_batch_inserted(node_id, stream,
                                             node_batch.batch_no)
        engine.dispatchers[stream].tuples_routed[node_id] += \
            node_batch.num_inserts
        # The out halves across nodes hold each tuple exactly once.
        engine._raw_bytes[stream] += config.memory.tuple_bytes * (
            len(node_batch.out_timeless) + len(node_batch.out_timing))
    for (stream, _), piece in sorted(slices.items()):
        if piece.entries:  # the batch had timeless data
            engine.registry.index(stream).append_slice(piece)
    engine.coordinator.advance(engine.store)
    engine._last_delivered.update(data["last_delivered"])

    # 5. The cadences, so the next checkpoint and GC fall where they
    #    would have without the restart; the clock; the queries.
    manager._last_cell = data["checkpoint_cell"]
    manager._entries_since_checkpoint = data["entries_since_checkpoint"]
    manager._markers = [CheckpointMarker(**m) for m in data["markers"]]
    engine._ticks = data["ticks"]
    engine.clock.advance_to(data["clock_ms"])
    for item in data["queries"]:
        handle = engine.register_continuous(
            item["text"], home_node=item["home_node"], name=item["name"],
            fixed_order=item["plan_order"])
        handle.pinned = item["pinned"]
        handle.next_close_ms = item["next_close_ms"]
        handle.closes_at_last_check = item["closes_at_last_check"]
        handle.closes_at_last_swap = item["closes_at_last_swap"]

    # 6. Drop whatever the recovered windows can no longer reach.
    engine.gc.run(engine.clock.now_ms)
    return engine
