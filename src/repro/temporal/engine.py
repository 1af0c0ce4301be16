"""The SPARQL-T temporal query engine.

Answers point-in-time (``FROM SNAPSHOT <t>``) and interval (quintuple
pattern) queries from the persistent store's version chains, without
blocking ingestion: a temporal read pins its snapshot against the GC
frontier (:meth:`Coordinator.pin_snapshot`), runs while injectors keep
appending (append-only visibility makes the pinned prefix immutable),
and unpins when done.  Unanswerable snapshots — below the GC frontier
or above the stable SN — are refused with typed
:class:`~repro.errors.TemporalError` subclasses, never silently wrong.

Execution splits by query shape:

* *snapshot-only* queries (``FROM SNAPSHOT <t>``, no quintuple patterns
  or interval FILTERs) delegate to the one-shot engine's columnar fast
  path with the read snapshot overridden — same plans, same charges,
  same results as a plain one-shot at that snapshot (the differential
  suite proves ``FROM SNAPSHOT <latest>`` bit-identical to a plain
  one-shot);
* *interval* queries run on the SN-carrying columnar kernels
  (:mod:`repro.temporal.kernels`) over batched version-carrying store
  reads; :mod:`repro.temporal.evaluate` holds the interval relations
  they evaluate.

Both paths plan through the engine's
:class:`~repro.core.pipeline.QueryPipeline` (one ordering pass per
query; interval lookups are counted under its ``interval`` kind).

Both paths count version-chain traversal work (snapshot reads, entries
scanned, deepest chain) into the :class:`TemporalRecord` and — when
observability is enabled — into ``temporal_*`` metrics under a
``temporal`` trace span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from repro.core.coordinator import Coordinator
from repro.core.oneshot import OneShotEngine, OneShotRecord
from repro.errors import UnsupportedOperationError
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import Query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import ExecutionResult
from repro.temporal.evaluate import IntervalCounters
from repro.temporal.kernels import evaluate_interval_batch

#: Bound on retained per-execution records (oldest dropped first).
RECORD_CAPACITY = 4096


@dataclass
class TemporalRecord(OneShotRecord):
    """One completed temporal execution, with traversal statistics."""

    #: ``len(result.rows)`` — survives archiving (the bounded
    #: ``TemporalEngine.records`` copy drops the rows themselves so a
    #: retained history never holds query outputs alive).
    row_count: int = 0
    #: Version-carrying store probes issued (snapshot reads).
    snapshot_reads: int = 0
    #: Total version-chain entries traversed across those probes.
    version_entries: int = 0
    #: Longest single version chain traversed.
    max_chain_depth: int = 0
    #: Whether the interval kernels ran (False = snapshot-only
    #: delegation to the one-shot path).
    interval_path: bool = False


class _CountingAccess(PersistentAccess):
    """Persistent-store access that counts snapshot reads.

    Wraps the exact reads the one-shot executor would issue anyway —
    counting is wall-clock-only bookkeeping, so the delegated execution
    stays bit-identical (rows, meter, digest) to a plain one-shot.
    """

    def __init__(self, store: DistributedStore, counters: IntervalCounters,
                 home_node: int = 0, max_sn: Optional[int] = None):
        super().__init__(store, home_node=home_node, max_sn=max_sn)
        self._counters = counters

    def neighbors(self, vid: int, eid: int, d: int,
                  meter: LatencyMeter) -> List[int]:
        visible = super().neighbors(vid, eid, d, meter)
        self._counters.record(len(visible))
        return visible

    def neighbors_many(self, vids: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        fetched = super().neighbors_many(vids, eid, d, meter)
        for visible in fetched.values():
            self._counters.record(len(visible))
        return fetched


class TemporalEngine:
    """Executes SPARQL-T queries under snapshot pinning."""

    def __init__(self, cluster: Cluster, store: DistributedStore,
                 coordinator: Coordinator, oneshot: OneShotEngine):
        self.cluster = cluster
        self.store = store
        self.coordinator = coordinator
        self.oneshot = oneshot
        self._next_home = 0
        #: Completed executions (bounded), newest last; the ablation
        #: report reads traversal statistics from here.
        self.records: List[TemporalRecord] = []
        #: Interval executions (snapshot-only delegations are counted by
        #: the one-shot engine's own executor counter).
        self.batch_executions = 0
        #: Observability hooks (attached by ``engine.enable_observability``).
        self.tracer = None
        self.metrics = None

    def execute(self, query: Query, home_node: Optional[int] = None,
                contended: bool = False) -> TemporalRecord:
        """Run one temporal query at its (pinned) read snapshot.

        The snapshot defaults to the current stable SN when the query
        carries no ``FROM SNAPSHOT`` clause (interval queries over live
        data).  Raises a typed :class:`~repro.errors.TemporalError` when
        the snapshot is outside the readable range.
        """
        if query.is_continuous:
            raise UnsupportedOperationError(
                "temporal queries are one-shot; continuous queries cannot "
                "carry snapshot scopes or interval patterns")
        if home_node is None:
            home_node = self._next_home % self.cluster.num_nodes
            self._next_home += 1
        snapshot = query.snapshot if query.snapshot is not None \
            else self.coordinator.stable_sn
        interval_path = query.has_intervals
        counters = IntervalCounters()

        # Validate-and-pin before touching any chain: advance() cannot
        # move the GC frontier past the pinned SN while the read runs.
        self.coordinator.pin_snapshot(snapshot)
        try:
            if interval_path:
                record = self._execute_interval(query, home_node, snapshot,
                                                contended, counters)
            else:
                record = self._execute_snapshot(query, home_node, snapshot,
                                                contended, counters)
        finally:
            self.coordinator.unpin_snapshot(snapshot)

        records = self.records
        if len(records) >= RECORD_CAPACITY:
            del records[0]
        # Archive without the rows: a temporal record can carry very
        # large outputs, and keeping thousands of them alive turns the
        # history buffer into allocator/GC pressure on later queries.
        records.append(replace(
            record, result=ExecutionResult(
                variables=record.result.variables, rows=[])))
        if self.metrics is not None:
            self.metrics.counter("temporal_snapshot_reads").inc(
                record.snapshot_reads)
            self.metrics.counter("temporal_version_entries").inc(
                record.version_entries)
            self.metrics.histogram("temporal_ns").observe(record.meter.ns)
        return record

    def _execute_snapshot(self, query: Query, home_node: int, snapshot: int,
                          contended: bool,
                          counters: IntervalCounters) -> TemporalRecord:
        """Snapshot-only path: the columnar one-shot engine at ``snapshot``.

        The counting access factory mirrors the default factory of
        ``OneShotEngine.execute`` exactly (same access object shape, same
        reads, same charges) and only adds wall-clock counters.
        """
        def factory(node_id):
            access = _CountingAccess(self.store, counters,
                                     home_node=node_id, max_sn=snapshot)
            return lambda pattern: access

        act = self.tracer.begin("temporal", "query", None,
                                snapshot=snapshot, path="snapshot",
                                home_node=home_node) \
            if self.tracer is not None else None
        inner = self.oneshot.execute(query, home_node=home_node,
                                     contended=contended, snapshot=snapshot,
                                     access_factory=factory)
        if act is not None:
            act.label(rows=len(inner.result.rows),
                      snapshot_reads=counters.snapshot_reads,
                      version_entries=counters.version_entries)
            act.end()
        return TemporalRecord(
            result=inner.result, meter=inner.meter, snapshot=snapshot,
            row_count=len(inner.result.rows),
            snapshot_reads=counters.snapshot_reads,
            version_entries=counters.version_entries,
            max_chain_depth=counters.max_chain_depth,
            interval_path=False)

    def _execute_interval(self, query: Query, home_node: int, snapshot: int,
                          contended: bool,
                          counters: IntervalCounters) -> TemporalRecord:
        """Interval path: the SN-carrying columnar kernels."""
        meter = LatencyMeter()
        act = self.tracer.begin("temporal", "query", meter,
                                snapshot=snapshot, path="interval",
                                home_node=home_node,
                                patterns=len(query.patterns)) \
            if self.tracer is not None else None
        meter.charge(self.cluster.cost.task_dispatch_ns, category="dispatch")
        plan = self.oneshot.plan(query)
        if act is not None:
            act.mark("plan", steps=len(plan.steps))
        self.batch_executions += 1
        variables, rows = evaluate_interval_batch(
            query, plan.compiled, self.store, home_node, snapshot, meter,
            counters=counters)
        self.oneshot.charge_contention(meter, contended)
        if act is not None:
            act.label(rows=len(rows),
                      snapshot_reads=counters.snapshot_reads,
                      version_entries=counters.version_entries,
                      max_chain_depth=counters.max_chain_depth)
            act.end()
        result = ExecutionResult(variables=variables, rows=rows)
        return TemporalRecord(
            result=result, meter=meter, snapshot=snapshot,
            row_count=len(rows),
            snapshot_reads=counters.snapshot_reads,
            version_entries=counters.version_entries,
            max_chain_depth=counters.max_chain_depth,
            interval_path=True)
