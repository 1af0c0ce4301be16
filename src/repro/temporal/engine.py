"""The SPARQL-T temporal query engine.

Answers point-in-time (``FROM SNAPSHOT <t>``) and interval (quintuple
pattern) queries from the persistent store's version chains, without
blocking ingestion: a temporal read pins its snapshot against the GC
frontier (:meth:`Coordinator.pin_snapshot`), runs while injectors keep
appending (append-only visibility makes the pinned prefix immutable),
and unpins when done.  Unanswerable snapshots — below the GC frontier
or above the stable SN — are refused with typed
:class:`~repro.errors.TemporalError` subclasses, never silently wrong.

Both query shapes are ordinary plans on the one execution path — the
engine's :class:`~repro.core.pipeline.QueryPipeline` plans them, the
one-shot engine runs them at the pinned snapshot — and differ only in
what their steps bind:

* *snapshot-only* queries (``FROM SNAPSHOT <t>``, no quintuple patterns
  or interval FILTERs) are plain one-shots with the read snapshot
  overridden — same plans, same charges, same results (the differential
  suite proves ``FROM SNAPSHOT <latest>`` bit-identical to a plain
  one-shot);
* *interval* queries have quintuple steps, which the executor sends to
  its version-carrying kernel (each matched entry also binds ``?ts`` to
  its insertion snapshot and ``?te`` to the open end), and interval
  FILTERs, scheduled and compiled beside ordinary ones; their plan
  lookups are counted under the pipeline's ``interval`` kind.

Every read goes through a counting access, so version-chain traversal
work (snapshot reads, entries scanned, deepest chain) lands in the
:class:`TemporalRecord` and — when observability is enabled — in
``temporal_*`` metrics under a ``temporal`` trace span, for both shapes
alike.

Compaction note: bounded scalarization reads SNs at or below the GC
frontier as the base snapshot, coarsening ``?ts`` for pre-frontier
entries.  Queries whose interval conditions need exact pre-frontier
history must run with scalarization disabled; the snapshot pin
guarantees the frontier cannot move past the read snapshot *mid-query*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.coordinator import Coordinator
from repro.core.oneshot import OneShotEngine, OneShotRecord
from repro.errors import UnsupportedOperationError
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import Query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import ExecutionResult

#: Bound on retained per-execution records (oldest dropped first).
RECORD_CAPACITY = 4096


@dataclass
class TemporalRecord(OneShotRecord):
    """One completed temporal execution, with traversal statistics."""

    #: ``len(result)`` — survives archiving (the bounded
    #: ``TemporalEngine.records`` copy drops the result's columns so a
    #: retained history never holds query outputs alive).
    row_count: int = 0
    #: Store probes issued at the pinned snapshot (snapshot reads).
    snapshot_reads: int = 0
    #: Total version-chain entries traversed across those probes.
    version_entries: int = 0
    #: Longest single version chain traversed.
    max_chain_depth: int = 0
    #: Whether the query had quintuple patterns or interval FILTERs
    #: (False = snapshot-only).
    interval_path: bool = False


class IntervalCounters:
    """Version-chain traversal statistics of one temporal execution."""

    __slots__ = ("snapshot_reads", "version_entries", "max_chain_depth")

    def __init__(self) -> None:
        #: Store probes issued (one per key read).
        self.snapshot_reads = 0
        #: Total version-chain entries traversed across all probes.
        self.version_entries = 0
        #: Longest single version chain traversed.
        self.max_chain_depth = 0

    def record(self, entries: int) -> None:
        self.snapshot_reads += 1
        self.version_entries += entries
        if entries > self.max_chain_depth:
            self.max_chain_depth = entries


class _CountingAccess(PersistentAccess):
    """Persistent-store access that counts snapshot reads.

    Wraps the exact reads the executor would issue anyway — counting is
    wall-clock-only bookkeeping, so the execution stays bit-identical
    (rows, meter, digest) to one over a plain ``PersistentAccess``.
    """

    def __init__(self, store: DistributedStore, counters: IntervalCounters,
                 home_node: int = 0, max_sn: Optional[int] = None):
        super().__init__(store, home_node=home_node, max_sn=max_sn)
        self._counters = counters

    def neighbors_many(self, vids: Iterable[int], eid: int, d: int,
                       meter: LatencyMeter) -> Dict[int, List[int]]:
        fetched = super().neighbors_many(vids, eid, d, meter)
        for visible in fetched.values():
            self._counters.record(len(visible))
        return fetched

    def neighbors_versions_batch(self, vids: Iterable[int], eid: int, d: int,
                                 meter: LatencyMeter
                                 ) -> Dict[int, Tuple[List[int], List[int]]]:
        fetched = super().neighbors_versions_batch(vids, eid, d, meter)
        for visible, _ in fetched.values():
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
        #: Executions of queries with quintuple patterns or interval
        #: FILTERs (every temporal execution, snapshot-only ones too,
        #: also counts in the one-shot engine's executor counter).
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

        def factory(node_id):
            access = _CountingAccess(self.store, counters,
                                     home_node=node_id, max_sn=snapshot)
            return lambda pattern: access

        # Validate-and-pin before touching any chain: advance() cannot
        # move the GC frontier past the pinned SN while the read runs.
        self.coordinator.pin_snapshot(snapshot)
        try:
            act = self.tracer.begin(
                "temporal", "query", None, snapshot=snapshot,
                path="interval" if interval_path else "snapshot",
                home_node=home_node) if self.tracer is not None else None
            inner = self.oneshot.execute(query, home_node=home_node,
                                         contended=contended,
                                         snapshot=snapshot,
                                         access_factory=factory)
            if act is not None:
                act.label(rows=len(inner.result),
                          snapshot_reads=counters.snapshot_reads,
                          version_entries=counters.version_entries,
                          max_chain_depth=counters.max_chain_depth)
                act.end()
        finally:
            self.coordinator.unpin_snapshot(snapshot)
        if interval_path:
            self.batch_executions += 1
        record = TemporalRecord(
            result=inner.result, meter=inner.meter, snapshot=snapshot,
            row_count=len(inner.result),
            snapshot_reads=counters.snapshot_reads,
            version_entries=counters.version_entries,
            max_chain_depth=counters.max_chain_depth,
            interval_path=interval_path)

        records = self.records
        if len(records) >= RECORD_CAPACITY:
            del records[0]
        # Archive without the columns: a temporal record can carry very
        # large outputs, and keeping thousands of them alive turns the
        # history buffer into allocator/GC pressure on later queries.
        records.append(replace(
            record, result=ExecutionResult(record.result.variables,
                                           record.result.kinds)))
        if self.metrics is not None:
            self.metrics.counter("temporal_snapshot_reads").inc(
                record.snapshot_reads)
            self.metrics.counter("temporal_version_entries").inc(
                record.version_entries)
            self.metrics.histogram("temporal_ns").observe(record.meter.ns)
        return record
