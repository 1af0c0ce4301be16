"""The continuous query engine: registration and data-driven execution.

A registered continuous query lives on a *home node* (continuous queries
are light-weight and execute in-place on a single worker, §5); registration
declares interest in the query's streams so the stream-index registry
replicates those indexes to the home node (locality-aware partitioning,
§4.2).  Execution is data-driven: an execution closing at time ``t`` fires
only once the stable vector timestamp covers the last batch every window
needs (§4.3).  Registration and plan swaps plan through the engine's
:class:`~repro.core.pipeline.QueryPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.access import WindowAccess
from repro.core.coordinator import Coordinator
from repro.core.stream_index import ColumnarSlice, StreamIndexRegistry
from repro.core.transient import TransientStore
from repro.errors import RegistrationError
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import Query
from repro.sparql.planner import ExecutionPlan
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import ExecutionResult, GraphExplorer
from repro.streams.stream import StreamSchema
from repro.streams.window import WindowPlanner


@dataclass
class ExecutionRecord:
    """One completed execution of a continuous query."""

    close_ms: int
    result: ExecutionResult
    meter: LatencyMeter

    @property
    def latency_ms(self) -> float:
        return self.meter.ms


@dataclass
class GapMarker:
    """A window close the engine could not serve on time (degraded mode).

    Instead of silently skipping the window, the engine reports the gap to
    subscribers; once recovery catches up and the execution actually runs,
    the marker is resolved with the time the late result arrived.  Until
    then ``resolved_ms`` is None.
    """

    query: str
    close_ms: int
    noted_ms: int
    reason: str = "degraded"
    resolved_ms: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.resolved_ms is not None


@dataclass
class RegisteredQuery:
    """A continuous query held by the engine."""

    name: str
    query: Query
    plan: ExecutionPlan
    home_node: int
    planners: Dict[str, WindowPlanner]
    step_ms: int
    next_close_ms: int
    #: Registered with an explicit ``fixed_order``: the adaptive
    #: re-planner (``repro.core.replan``) never touches pinned queries.
    #: Golden workloads pin their orders so re-planning stays opt-in.
    pinned: bool = False
    #: Applied plan swaps, in order (``repro.core.replan.ReplanEvent``).
    replans: List[object] = field(default_factory=list)
    #: Closes already seen by the plan monitor at its last check / swap
    #: (the monitor's per-query cadence and cool-down state).
    closes_at_last_check: int = 0
    closes_at_last_swap: Optional[int] = None
    executions: List[ExecutionRecord] = field(default_factory=list)
    #: ``(cache key, factory)`` of the last access factory built; reused
    #: while the stable SN and every window's batch range stand still.
    access_cache: Optional[tuple] = None
    #: Per-stream columnar window views (the incremental window-delta
    #: cache): each close advances the view by the window step, reusing
    #: the previous close's columns.  Batch path only; wall-clock-only.
    window_views: Dict[str, ColumnarSlice] = field(default_factory=dict)
    #: Window closes missed while the cluster was degraded (in close
    #: order; resolved in place when catch-up executes them).
    gaps: List[GapMarker] = field(default_factory=list)

    @property
    def plan_order(self) -> Tuple[int, ...]:
        """The active plan's pattern ordering — the second half of its
        plan-cache key."""
        return self.plan.order

    def requirement_at(self, close_ms: int) -> Dict[str, int]:
        """Stream -> last batch number needed for the execution at close_ms."""
        return {stream: planner.last_batch_needed(close_ms)
                for stream, planner in self.planners.items()}


class ContinuousEngine:
    """Registration and triggering of continuous queries."""

    def __init__(self, cluster: Cluster, store: DistributedStore,
                 strings: StringServer, registry: StreamIndexRegistry,
                 transients: Dict[str, List[TransientStore]],
                 coordinator: Coordinator, schemas: Dict[str, StreamSchema],
                 batch_interval_ms: int):
        self.cluster = cluster
        self.store = store
        self.strings = strings
        self.registry = registry
        self.transients = transients
        self.coordinator = coordinator
        self.schemas = schemas
        self.batch_interval_ms = batch_interval_ms
        self.explorer = GraphExplorer(cluster, self.strings)
        self.queries: Dict[str, RegisteredQuery] = {}
        self._next_home = 0
        #: The engine's ``repro.core.pipeline.QueryPipeline`` (attached
        #: by ``WukongSEngine``, like the observability hooks below).  A
        #: registered query holds its plan by reference, so cache
        #: evictions never touch a running query.
        self.pipeline = None
        #: Observability hooks (attached by ``engine.enable_observability``).
        self.tracer = None
        self.metrics = None

    # -- registration -------------------------------------------------------
    def register(self, query: Query, now_ms: int,
                 home_node: Optional[int] = None,
                 name: Optional[str] = None,
                 fixed_order: Optional[Sequence[int]] = None
                 ) -> RegisteredQuery:
        """Register a continuous query; returns its handle.

        The home node defaults to round-robin placement across the cluster
        (each query is served by one worker; many queries spread out).
        ``name`` overrides the query's own registration name — the serving
        layer uses this to register many client queries that all carry the
        same ``REGISTER QUERY`` name (or share one backing registration)
        without colliding in the engine's namespace.

        ``fixed_order`` (a permutation of pattern indices) *pins* the
        query to that exact pattern ordering: the adaptive re-planner
        skips pinned queries forever.  Golden workloads pin their
        registration-time orders so adaptive engines replay bit-identically.
        """
        if not query.is_continuous:
            raise RegistrationError(
                "query has no stream windows; submit it as one-shot instead")
        if name is None:
            name = query.name or f"q{len(self.queries)}"
        if name in self.queries:
            raise RegistrationError(f"query name already registered: {name}")
        for stream in query.windows:
            if stream not in self.schemas:
                raise RegistrationError(f"unknown stream: {stream}")
        # Registration-time plan: unless pinned, the purely positional
        # greedy order (no statistics — registration typically happens
        # against a cold store; the plan monitor re-plans once the store
        # warms).
        plan = self.pipeline.plan(query, fixed_order=fixed_order)
        if home_node is None:
            # Locality-aware placement: a constant-start (selective) query
            # runs on the node that owns its start vertex, so its window
            # reads are local and it completes within a single node (§5's
            # in-place execution).  Index-start queries spread round-robin.
            home_node = self._locality_home(plan)
        if home_node is None:
            home_node = self._next_home % self.cluster.num_nodes
            self._next_home += 1

        planners = {
            stream: WindowPlanner(window, self.batch_interval_ms)
            for stream, window in query.windows.items()
        }
        step_ms = min(w.step_ms for w in query.windows.values())
        registered = RegisteredQuery(
            name=name, query=query, plan=plan,
            home_node=home_node, planners=planners, step_ms=step_ms,
            next_close_ms=now_ms + step_ms,
            pinned=fixed_order is not None)
        # Locality-aware partitioning: replicate the indexes of the streams
        # this query consumes onto its home node.
        for stream in query.windows:
            self.registry.add_interest(stream, home_node)
        self.queries[name] = registered
        return registered

    def _locality_home(self, plan: ExecutionPlan) -> Optional[int]:
        """Owner node of the plan's constant start vertex, if any."""
        from repro.sparql.planner import CONST_OBJECT, CONST_SUBJECT
        step = plan.steps[0]
        if step.kind == CONST_SUBJECT:
            term = step.pattern.subject
        elif step.kind == CONST_OBJECT:
            term = step.pattern.object
        else:
            return None
        vid = self.strings.lookup_entity(term)
        return None if vid is None else self.cluster.owner_of(vid)

    def swap_plan(self, registered: RegisteredQuery,
                  order: Sequence[int]) -> ExecutionPlan:
        """Swap ``registered`` onto the plan for ``order`` (a permutation
        of its pattern indices).

        Called by the plan monitor *between* window closes (after a
        :meth:`poll`), so every close runs start-to-finish under exactly
        one plan.  The access factory and columnar window views are
        plan-independent (keyed by stable SN and batch ranges) and carry
        over untouched; only the plan reference — and with it the compiled
        executor, compiled from that plan's own step order — changes.
        """
        registered.plan = self.pipeline.plan(registered.query,
                                             fixed_order=order)
        return registered.plan

    def unregister(self, name: str) -> None:
        registered = self.queries.pop(name, None)
        if registered is None:
            raise RegistrationError(f"no such continuous query: {name}")
        for stream in registered.query.windows:
            self.registry.drop_interest(stream, registered.home_node)

    # -- execution ------------------------------------------------------------
    def poll(self, now_ms: int) -> List[ExecutionRecord]:
        """Execute every registered query whose next window is closed, due
        and covered by the stable VTS.  Returns the new execution records."""
        records: List[ExecutionRecord] = []
        for registered in self.queries.values():
            while registered.next_close_ms <= now_ms:
                requirement = registered.requirement_at(
                    registered.next_close_ms)
                if not self.coordinator.is_ready(requirement):
                    break  # data-driven: wait for insertion to catch up
                records.append(self.execute_once(
                    registered, registered.next_close_ms))
                for marker in registered.gaps:
                    if marker.close_ms == registered.next_close_ms \
                            and marker.resolved_ms is None:
                        marker.resolved_ms = now_ms
                registered.next_close_ms += registered.step_ms
        return records

    def note_gaps(self, now_ms: int, reason: str = "degraded"
                  ) -> List[GapMarker]:
        """Report (without executing) every due window close as a gap.

        Called instead of :meth:`poll` while the cluster is degraded: a
        dead node's shard is empty, so executing would silently return
        wrong (partial) answers.  ``next_close_ms`` is *not* advanced —
        the normal catch-up loop in :meth:`poll` runs the missed closes
        once recovery completes, and resolves these markers.
        """
        fresh: List[GapMarker] = []
        for registered in self.queries.values():
            noted = {marker.close_ms for marker in registered.gaps}
            close = registered.next_close_ms
            while close <= now_ms:
                if close not in noted:
                    marker = GapMarker(query=registered.name, close_ms=close,
                                       noted_ms=now_ms, reason=reason)
                    registered.gaps.append(marker)
                    fresh.append(marker)
                close += registered.step_ms
        return fresh

    def execute_once(self, registered: RegisteredQuery,
                     close_ms: int) -> ExecutionRecord:
        """Run one execution of ``registered`` for the window closing at
        ``close_ms`` (callers must ensure readiness)."""
        meter = LatencyMeter()
        act = self.tracer.begin("window", "continuous", meter,
                                query=registered.name, close_ms=close_ms,
                                home_node=registered.home_node) \
            if self.tracer is not None else None
        meter.charge(self.cluster.cost.task_dispatch_ns, category="dispatch")
        meter.charge(self.cluster.cost.trigger_check_ns, category="trigger")
        if act is not None:
            act.mark("dispatch")
        factory = self._access_factory(registered, close_ms)
        result = self.explorer.execute(registered.plan, factory, meter,
                                       home_node=registered.home_node)
        if act is not None:
            act.label(rows=len(result.rows))
            act.end()
        if self.metrics is not None:
            self.metrics.histogram(
                "window_ns", query=registered.name).observe(meter.ns)
        record = ExecutionRecord(close_ms=close_ms, result=result,
                                 meter=meter)
        registered.executions.append(record)
        return record

    def _access_factory(self, registered: RegisteredQuery, close_ms: int
                        ) -> Callable:
        """Per-node pattern -> StoreAccess factory for one execution.

        Distributed modes (fork-join / migrate) resolve accesses at other
        nodes; the stream index is available wherever a branch runs (it is
        replicated on demand, §4.2), so every node's window access treats
        the index as local.

        The factory (and the per-node accesses it memoizes) is cached on
        the registered query and reused while the stable SN and every
        window's batch range are unchanged — under that key the visible
        data is identical, and construction charges no simulated time, so
        reuse is free of simulated-time effects.  ``crash_node`` swaps
        shard/transient list elements in place, so captured references
        stay valid across failures.
        """
        stable_sn = self.coordinator.stable_sn
        ranges = {stream: planner.batch_range(close_ms)
                  for stream, planner in registered.planners.items()}
        key = (stable_sn, tuple(sorted(ranges.items())))
        cached = registered.access_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        # Advance each stream's columnar view to this close's range: the
        # incremental window delta appends the newly closed batches and
        # drops the expired prefix, keeping every other cached column.
        views: Dict[str, ColumnarSlice] = {}
        for stream, (first, last) in ranges.items():
            view = registered.window_views.get(stream)
            if view is None:
                view = registered.window_views[stream] = ColumnarSlice(
                    self.registry.index(stream), self.store)
            view.advance(first, last)
            views[stream] = view
        cache: Dict[int, Callable] = {}

        def factory(node_id: int):
            resolver = cache.get(node_id)
            if resolver is not None:
                return resolver
            window_access: Dict[str, WindowAccess] = {}
            for stream, view in views.items():
                # The home node relies on the replica its registration
                # created (§4.2); branches at other nodes receive
                # on-demand replicas for the distributed modes.
                window_access[stream] = WindowAccess(
                    cluster=self.cluster, store=self.store,
                    strings=self.strings, registry=self.registry,
                    stream_schema=self.schemas[stream],
                    transients=self.transients[stream], view=view,
                    home_node=node_id,
                    force_local_index=(node_id != registered.home_node))
            stored_access = PersistentAccess(
                self.store, home_node=node_id, max_sn=stable_sn)

            def resolver(pattern):
                access = window_access.get(pattern.graph)
                return access if access is not None else stored_access

            cache[node_id] = resolver
            return resolver

        registered.access_cache = (key, factory)
        return factory
