"""The Wukong+S engine facade.

Wires the whole execution flow of Fig. 5 together: stream sources feed the
Adaptor (batching + classification), the Dispatcher partitions each batch
across nodes, per-node Injectors absorb it into the hybrid store while
building the stream index, the Coordinator advances vector timestamps and
the SN plan, and the continuous/one-shot engines serve queries.

Time is simulated: :meth:`WukongSEngine.step` advances one mini-batch
interval, performing everything due in it; :meth:`run_until` loops.  All
latency numbers come from :class:`~repro.sim.cost.LatencyMeter` accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.adaptor import AdaptedBatch, Adaptor
from repro.core.continuous import (ContinuousEngine, ExecutionRecord,
                                   RegisteredQuery)
from repro.core.coordinator import Coordinator
from repro.core.dispatcher import Dispatcher, NodeBatch
from repro.core.gc import GarbageCollector
from repro.core.injector import Injector
from repro.core.oneshot import OneShotEngine, OneShotRecord
from repro.core.pipeline import QueryPipeline
from repro.core.replan import PlanMonitor
from repro.core.stream_index import (ColumnarSlice, IndexSlice,
                                     StreamIndexRegistry)
from repro.core.transient import TransientStore
from repro.errors import StoreError, StreamError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import Triple
from repro.sim.clock import VirtualClock
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter, MemoryModel
from repro.sparql.ast import Query
from repro.store.statistics import PredicateStatistics
from repro.streams.source import StreamSource
from repro.streams.stream import StreamBatch, StreamSchema
from repro.streams.window import batch_span, batches_closed_by


@dataclass
class EngineConfig:
    """Tunables of one engine instance (defaults follow the paper's setup).

    Besides the calibrated ``cost`` and ``memory`` models, a setting earns
    a field only when a paper bench or a golden, chaos or e2e workload sets
    it to a second value; the rest are constants where they are used
    (batch geometry: ``repro.streams.window``; workers per node:
    ``repro.sim.cluster``; re-plan hysteresis and cool-down:
    ``repro.core.replan``; two live snapshots: ``Coordinator.advance``).
    """

    num_nodes: int = 1
    use_rdma: bool = True
    batch_interval_ms: int = 100
    plan_width: int = 1
    scalarization: bool = True
    injector_threads: int = 1
    gc_every_ticks: int = 10
    gc_retention_ms: int = 10_000
    fault_tolerance: bool = False
    checkpoint_interval_ms: int = 1_000
    #: Deterministic tracing (``repro.obs``): off by default; enabling it
    #: never changes simulated time (spans only read meters).
    tracing: bool = False
    #: Adaptive re-planning of registered continuous queries from live
    #: predicate statistics (``repro.core.replan.PlanMonitor``).  Off by
    #: default: a plan swap deliberately changes which simulated work
    #: each close performs, so golden/deterministic workloads must opt in
    #: (or pin their orders via ``register_continuous(fixed_order=...)``).
    adaptive_replan: bool = False
    #: Re-plan check cadence (executed closes between checks per query).
    replan_check_closes: int = 8
    cost: CostModel = field(default_factory=CostModel)
    memory: MemoryModel = field(default_factory=MemoryModel)


@dataclass
class InjectionRecord:
    """Cost accounting for one injected batch (Table 6 inputs)."""

    stream: str
    batch_no: int
    num_tuples: int
    meter: LatencyMeter

    @property
    def indexing_ms(self) -> float:
        """Time spent building the batch's stream-index slice."""
        return self.meter.breakdown_ms.get("indexing", 0.0)

    @property
    def injection_ms(self) -> float:
        """Everything else on the batch's path: adapt, dispatch, insert."""
        return self.meter.ms - self.indexing_ms

    @property
    def total_ms(self) -> float:
        return self.meter.ms


class WukongSEngine:
    """The integrated stateful stream-querying engine."""

    def __init__(self, schemas: Iterable[StreamSchema],
                 config: Optional[EngineConfig] = None):
        self.config = config if config is not None else EngineConfig()
        cfg = self.config
        self.cluster = Cluster(cfg.num_nodes, cost=cfg.cost,
                               use_rdma=cfg.use_rdma)
        self.strings = StringServer()
        # Imported here at runtime to avoid a cycle in module docs only.
        from repro.store.distributed import DistributedStore
        self.store = DistributedStore(self.cluster, self.strings)
        self.clock = VirtualClock()

        self.schemas: Dict[str, StreamSchema] = {}
        self.registry = StreamIndexRegistry(cost=cfg.cost)
        self.transients: Dict[str, List[TransientStore]] = {}
        self.adaptors: Dict[str, Adaptor] = {}
        self.dispatchers: Dict[str, Dispatcher] = {}
        self.sources: Dict[str, StreamSource] = {}
        self._pending: Dict[str, Deque[StreamBatch]] = {}
        self._last_delivered: Dict[str, int] = {}
        self._raw_bytes: Dict[str, int] = {}

        for schema in schemas:
            self._add_stream_state(schema)

        self.coordinator = Coordinator(
            cfg.num_nodes, list(self.schemas), plan_width=cfg.plan_width,
            scalarization=cfg.scalarization, cost=cfg.cost)
        self.injectors = [
            Injector(node_id, self.store,
                     {s: shards[node_id] for s, shards in
                      self.transients.items()},
                     threads=cfg.injector_threads)
            for node_id in range(cfg.num_nodes)
        ]
        self.continuous = ContinuousEngine(
            self.cluster, self.store, self.strings, self.registry,
            self.transients, self.coordinator, self.schemas,
            cfg.batch_interval_ms)
        #: The live selectivity view every planner reads (one-shot
        #: ordering and the adaptive re-planner).
        self.statistics = PredicateStatistics(self.store)
        self.oneshot_engine = OneShotEngine(
            self.cluster, self.store, self.coordinator, self.statistics)
        # Imported at runtime: repro.temporal imports core modules.
        from repro.temporal import TemporalEngine
        self.temporal = TemporalEngine(
            self.cluster, self.store, self.coordinator, self.oneshot_engine)
        #: The one parse → order → plan → compile seam: every query the
        #: engines above execute or register is planned here.
        self.pipeline = QueryPipeline()
        self.continuous.pipeline = self.oneshot_engine.pipeline = \
            self.pipeline
        self.gc = GarbageCollector(
            self.registry, self.transients, self.continuous,
            cfg.batch_interval_ms, retention_ms=cfg.gc_retention_ms)

        from repro.core.checkpoint import CheckpointManager
        self.checkpoints = CheckpointManager(
            cfg.cost, interval_ms=cfg.checkpoint_interval_ms,
            num_nodes=cfg.num_nodes) \
            if cfg.fault_tolerance else None

        #: Adaptive re-planner (``repro.core.replan``); None unless
        #: ``adaptive_replan`` opted in.
        self.plan_monitor = None
        if cfg.adaptive_replan:
            self.plan_monitor = PlanMonitor(
                self.continuous, self.statistics,
                check_every_closes=cfg.replan_check_closes)

        self.injection_records: List[InjectionRecord] = []
        self._ticks = 0
        #: Optional chaos controller (``repro.chaos``); None on the healthy
        #: path, where every hook below short-circuits.
        self.chaos = None
        #: Observability (``repro.obs``): both None unless enabled — the
        #: hot paths gate every hook on that, so trace-off runs pay one
        #: attribute check per site.
        self.tracer = None
        self.metrics = None
        if cfg.tracing:
            self.enable_observability()

    # -- observability -----------------------------------------------------
    def enable_observability(self):
        """Attach a :class:`~repro.obs.trace.Tracer` and a
        :class:`~repro.obs.metrics.MetricsRegistry` to every subsystem.

        Tracing is zero-cost in simulated time (spans only read meters;
        goldens are unchanged — see ``tests/obs/test_trace_neutrality``).
        Returns ``(tracer, metrics)``.
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer
        tracer = Tracer(clock=self.clock)
        metrics = MetricsRegistry()
        self.tracer = tracer
        self.metrics = metrics
        self.continuous.tracer = tracer
        self.continuous.metrics = metrics
        self.continuous.explorer.tracer = tracer
        self.oneshot_engine.tracer = tracer
        self.oneshot_engine.metrics = metrics
        self.oneshot_engine.explorer.tracer = tracer
        self.temporal.tracer = tracer
        self.temporal.metrics = metrics
        if self.plan_monitor is not None:
            self.plan_monitor.tracer = tracer
            self.plan_monitor.metrics = metrics
        return tracer, metrics

    # -- stream wiring -----------------------------------------------------
    def _add_stream_state(self, schema: StreamSchema) -> None:
        if schema.name in self.schemas:
            raise StreamError(f"stream declared twice: {schema.name}")
        cfg = self.config
        self.schemas[schema.name] = schema
        self.registry.create_stream(schema.name, memory=cfg.memory)
        self.transients[schema.name] = [
            TransientStore(schema.name, cost=cfg.cost, memory=cfg.memory)
            for _ in range(cfg.num_nodes)
        ]
        self.adaptors[schema.name] = Adaptor(schema, self.strings,
                                             cost=cfg.cost)
        source_node = len(self.dispatchers) % cfg.num_nodes
        self.dispatchers[schema.name] = Dispatcher(
            self.cluster, source_node=source_node, memory=cfg.memory)
        self._pending[schema.name] = deque()
        self._last_delivered[schema.name] = 0
        self._raw_bytes[schema.name] = 0

    def add_stream(self, schema: StreamSchema) -> None:
        """Dynamically register a new stream (§4.3: the SN plan extends
        transparently)."""
        self._add_stream_state(schema)
        self.coordinator.add_stream(schema.name)
        for injector in self.injectors:
            injector.transients[schema.name] = \
                self.transients[schema.name][injector.node_id]

    def attach_source(self, source: StreamSource) -> None:
        """Connect a stream source (its schema must be registered)."""
        name = source.schema.name
        if name not in self.schemas:
            raise StreamError(f"unknown stream: {name}")
        self.sources[name] = source

    # -- loading ---------------------------------------------------------------
    def load_static(self, triples: Iterable[Triple]) -> int:
        """Bulk-load the initially stored data at the base snapshot (kept
        as ``checkpoints.base`` when there is a log).  Refused once a
        stream batch has entered: a base write below stream entries would
        not replay as it ran, and could leave some shards written."""
        if any(self._last_delivered.values()):
            raise StoreError(
                "static data must be loaded before any stream batch enters")
        columns = self.strings.encode_triples(triples)
        self.store.insert_columns(columns)
        if self.checkpoints is not None:
            self.checkpoints.keep_base(columns)
        return len(columns)

    # -- queries -----------------------------------------------------------------
    def check_home_node(self, home_node: Optional[int]) -> None:
        """Refuse a home node the cluster does not have (its charges
        would be priced from, and its index replica placed on, a node
        that does not exist)."""
        if home_node is not None \
                and not 0 <= home_node < self.config.num_nodes:
            raise StoreError(
                f"no such home node: {home_node} (the cluster has nodes "
                f"0..{self.config.num_nodes - 1})")

    def register_continuous(self, query: Union[str, Query],
                            home_node: Optional[int] = None,
                            name: Optional[str] = None,
                            fixed_order: Optional[List[int]] = None
                            ) -> RegisteredQuery:
        """Register a C-SPARQL continuous query (text or parsed).

        ``name`` overrides the registration name (serving-layer backing
        registrations pick synthetic names so identically named client
        queries never collide).  ``fixed_order`` pins the pattern
        ordering, exempting the query from adaptive re-planning (golden
        workloads pin their orders; see ``repro.core.replan``).
        """
        self.check_home_node(home_node)
        parsed = self.pipeline.parse(query) if isinstance(query, str) \
            else query
        return self.continuous.register(parsed, self.clock.now_ms,
                                        home_node=home_node, name=name,
                                        fixed_order=fixed_order)

    def oneshot(self, query: Union[str, Query],
                home_node: Optional[int] = None) -> OneShotRecord:
        """Execute a one-shot SPARQL query at the stable snapshot."""
        self.check_home_node(home_node)
        parsed = self.pipeline.parse(query) if isinstance(query, str) \
            else query
        contended = bool(self.continuous.queries)
        if parsed.is_temporal:
            return self.temporal.execute(parsed, home_node=home_node,
                                         contended=contended)
        return self.oneshot_engine.execute(parsed, home_node=home_node,
                                           contended=contended)

    def oneshot_time_scoped(self, query: Union[str, Query], start_ms: int,
                            end_ms: int,
                            home_node: Optional[int] = None
                            ) -> OneShotRecord:
        """Time-scoped one-shot query: stream patterns read a historical
        interval instead of a sliding window.

        This is the paper's footnote-10 extension ("Wukong+S can support
        time-based one-shot queries by Time-ontology if needed"): the
        query's ``GRAPH <stream>`` patterns match tuples whose batches
        fall inside ``[start_ms, end_ms)`` — provided the stream index
        still retains them (raises :class:`~repro.errors.StoreError` once
        GC has reclaimed the interval); stored patterns read the stable
        snapshot as usual.
        """
        from repro.core.access import WindowAccess
        from repro.store.distributed import PersistentAccess

        self.check_home_node(home_node)
        parsed = self.pipeline.parse(query) if isinstance(query, str) \
            else query
        if not parsed.windows:
            raise StoreError(
                "time-scoped queries need at least one stream GRAPH; "
                "use oneshot() for purely stored queries")
        if end_ms <= start_ms:
            raise StoreError(f"empty time scope: [{start_ms}, {end_ms})")
        interval = self.config.batch_interval_ms
        # Every batch whose span overlaps [start_ms, end_ms).
        first = batches_closed_by(start_ms, interval) + 1
        last = batches_closed_by(end_ms + interval - 1, interval)
        if home_node is None:
            home_node = 0

        window_access = {}
        for stream in parsed.windows:
            if stream not in self.schemas:
                raise StreamError(f"unknown stream: {stream}")
            index = self.registry.index(stream)
            if first < index.collected_before:
                raise StoreError(
                    f"time scope [{start_ms}, {end_ms}) of stream "
                    f"{stream} was garbage-collected (batches below "
                    f"#{index.collected_before} are gone)")
            # A one-off view over the scope's batches: the same read
            # path (and charges) as a window close, nothing cached.
            window_access[stream] = WindowAccess(
                cluster=self.cluster, store=self.store,
                strings=self.strings, registry=self.registry,
                stream_schema=self.schemas[stream],
                transients=self.transients[stream],
                view=ColumnarSlice(index, self.store).advance(first, last),
                home_node=home_node, force_local_index=True)
        stored = PersistentAccess(self.store, home_node=home_node,
                                  max_sn=self.coordinator.stable_sn)

        def factory(node_id):
            def resolver(pattern):
                access = window_access.get(pattern.graph)
                return access if access is not None else stored
            return resolver

        return self.oneshot_engine.execute(
            parsed, home_node=home_node, access_factory=factory,
            scope=[start_ms, end_ms])

    # -- simulation loop ------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Whether normal progress is allowed this tick.

        False while any node is down or a chaos hold is in flight.  While
        degraded the engine stalls injection *globally* (preserving the
        exact global injection order — and with it every value-list offset,
        stream-index span and SN assignment — for recovery equivalence),
        skips checkpoints, and reports gap markers instead of executing
        continuous queries against a partial cluster.
        """
        return self.cluster.all_alive and \
            (self.chaos is None or not self.chaos.blocks_progress())

    def step(self) -> List[ExecutionRecord]:
        """Advance one mini-batch interval; returns new continuous results."""
        cfg = self.config
        now = self.clock.advance(cfg.batch_interval_ms)
        if self.chaos is not None:
            self.chaos.on_tick(self, now)
        self._deliver_batches(now)
        if self.healthy:
            self._pump_injection()
        # Re-checked after the pump: a scheduled mid-tick kill fires
        # between batch injections, degrading the rest of this tick.
        checkpointed = False
        if self.checkpoints is not None and self.healthy:
            checkpointed = self.checkpoints.maybe_checkpoint(
                now, self.coordinator, self.sources)
        if self.healthy:
            records = self.continuous.poll(now)
            if checkpointed and self.checkpoints is not None:
                # Queries co-scheduled with the incremental checkpoint wait
                # behind its write (the paper's p99 growth in §6.8).
                pause_ps = self.checkpoints.last_checkpoint_pause_ps
                for record in records:
                    record.meter.charge_ps(pause_ps, category="checkpoint")
            # The plan monitor runs *after* the poll, so a plan swap
            # always lands between window closes (never mid-close) and
            # the next due close runs the new plan from its first step.
            if self.plan_monitor is not None:
                self.plan_monitor.on_tick(now)
        else:
            self.continuous.note_gaps(now)
            records = []
        self._ticks += 1
        if cfg.gc_every_ticks and self._ticks % cfg.gc_every_ticks == 0:
            self.gc.run(now)
        return records

    def run_until(self, when_ms: int) -> List[ExecutionRecord]:
        """Step the simulation until the clock reaches ``when_ms``."""
        records: List[ExecutionRecord] = []
        while self.clock.now_ms < when_ms:
            records.extend(self.step())
        return records

    # -- internals -------------------------------------------------------------
    def _deliver_batches(self, now_ms: int) -> None:
        """Move batches whose interval has closed from sources to pending.

        A batch whose span is not its number's (batch #k spans
        ``[(k-1)*i, k*i)``) is refused with :class:`StreamError`: every
        window, SN mapping and GC frontier is computed from batch numbers.
        """
        interval = self.config.batch_interval_ms
        for name in self.schemas:
            source = self.sources.get(name)
            pending = self._pending[name]
            while source is not None and source.has_pending:
                head = source.next_batch()
                assert head is not None
                span = batch_span(head.batch_no, interval)
                if (head.start_ms, head.end_ms) != span:
                    raise StreamError(
                        f"stream {name}: batch #{head.batch_no} spans "
                        f"[{head.start_ms}, {head.end_ms}), not "
                        f"[{span[0]}, {span[1]}) as {interval} ms batches do")
                if self.chaos is not None and \
                        self.chaos.intercept_delivery(self, head):
                    continue  # held or dropped in flight; chaos re-queues
                if head.end_ms > now_ms:
                    # Arrived from the future: keep for a later tick by
                    # pushing back is impossible (sources are FIFO), so
                    # stage it in pending; injection checks readiness.
                    pending.append(head)
                    break
                pending.append(head)
            if self.chaos is None or \
                    not self.chaos.suppresses_padding(name):
                self._pad_stream(name, now_ms)

    def _pad_stream(self, name: str, now_ms: int) -> None:
        """Synthesize empty batches so idle streams keep the VTS moving."""
        interval = self.config.batch_interval_ms
        last_known = self._last_delivered[name]
        pending = self._pending[name]
        if pending:
            last_known = max(last_known, pending[-1].batch_no)
        for batch_no in range(last_known + 1,
                              batches_closed_by(now_ms, interval) + 1):
            start, end = batch_span(batch_no, interval)
            pending.append(StreamBatch(stream=name, batch_no=batch_no,
                                       start_ms=start, end_ms=end))

    def _pump_injection(self) -> None:
        """Inject every pending batch the SN plan currently admits."""
        progress = True
        while progress:
            progress = False
            for name in self.schemas:
                pending = self._pending[name]
                # Without a durable log nothing can replay an injected
                # batch (recovery needs a checkpoint): ack it at once, so
                # its source keeps no upstream backup of it.
                unlogged = self.sources.get(name) \
                    if self.checkpoints is None else None
                while pending:
                    if not self.cluster.all_alive:
                        return  # a mid-tick kill fired: stall till recovery
                    batch = pending[0]
                    if batch.end_ms > self.clock.now_ms:
                        break
                    sn = self.coordinator.sn_for_batch(name, batch.batch_no)
                    if sn is None:
                        break  # stalled until the next SN mapping
                    if self.chaos is not None and \
                            not self.chaos.admit_injection(self):
                        return  # chaos killed a node between batches
                    pending.popleft()
                    self._inject_batch(batch, sn)
                    self._last_delivered[name] = batch.batch_no
                    if unlogged is not None:
                        unlogged.ack(batch.batch_no)
                    progress = True
                self.coordinator.advance(self.store)

    def _inject_batch(self, batch: StreamBatch, sn: int) -> None:
        """Run one batch through Adaptor -> Dispatcher -> Injectors."""
        meter = LatencyMeter()
        act = self.tracer.begin("inject", "injection", meter,
                                stream=batch.stream,
                                batch_no=batch.batch_no, sn=sn) \
            if self.tracer is not None else None
        adaptor = self.adaptors[batch.stream]
        adapted = adaptor.adapt(batch, meter=meter)
        self._raw_bytes[batch.stream] += \
            self.config.memory.tuple_bytes * adapted.num_tuples
        node_batches = self.dispatchers[batch.stream].dispatch(adapted,
                                                               meter=meter)
        if act is not None:
            act.mark("adapt+dispatch")
        needs_index = bool(adapted.timeless)
        index_slice = IndexSlice(batch.batch_no) if needs_index else None
        group = act.group("insert") if act is not None else None
        branches = []
        for node_id, node_batch in node_batches.items():
            branch = meter.spawn()
            self.injectors[node_id].inject(node_batch, sn, index_slice,
                                           meter=branch)
            if self.checkpoints is not None:
                self.checkpoints.log_batch(node_batch, sn, meter=branch)
            branches.append(branch)
            self.coordinator.on_batch_inserted(node_id, batch.stream,
                                               batch.batch_no, meter=branch)
            if group is not None:
                group.branch(f"node{node_id}", branch, node=node_id)
        meter.join_parallel(branches)
        if group is not None:
            group.close()
        if index_slice is not None:
            self.registry.index(batch.stream).append_slice(index_slice,
                                                           meter=meter)
        if act is not None:
            act.mark("index")
            act.label(num_tuples=adapted.num_tuples)
            act.end()
        if self.metrics is not None and adapted.num_tuples:
            self.metrics.histogram("injection_ns",
                                   stream=batch.stream).observe(meter.ns)
        self.injection_records.append(InjectionRecord(
            stream=batch.stream, batch_no=batch.batch_no,
            num_tuples=adapted.num_tuples, meter=meter))

    # -- fault injection / recovery -----------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Fail one node, losing its in-memory shard and transient stores."""
        from repro.store.kvstore import ShardStore
        self.cluster.kill_node(node_id)
        self.coordinator.mark_node_down(node_id)
        self.store.shards[node_id] = ShardStore(
            self.config.cost,
            adjacency_capacity=self.store.adjacency_capacity)
        for shards in self.transients.values():
            shards[node_id] = TransientStore(
                shards[node_id].stream, cost=self.config.cost,
                memory=self.config.memory)
        self.injectors[node_id].transients = {
            stream: shards[node_id]
            for stream, shards in self.transients.items()
        }

    def recover_node(self, node_id: int):
        """Recover a crashed node from checkpoints + upstream backup (§5).

        Returns the :class:`~repro.core.checkpoint.RecoveryReport` with the
        replay counts and the recovery path's simulated cost.
        """
        if self.checkpoints is None:
            raise StreamError(
                "fault tolerance is disabled; enable it in EngineConfig")
        from repro.core.checkpoint import recover_node
        return recover_node(self, node_id)

    # -- accounting ------------------------------------------------------------
    def raw_stream_bytes(self, stream: str) -> int:
        """Raw bytes that have arrived on ``stream`` (Table 7 numerator)."""
        return self._raw_bytes[stream]

    def stream_index_bytes(self, stream: str) -> int:
        """Replica-weighted stream-index bytes (Table 7 denominator)."""
        return self.registry.memory_bytes(stream)

    def store_memory_bytes(self) -> int:
        return self.store.memory_bytes()
