"""The one-shot query engine.

One-shot (plain SPARQL) queries are read-only transactions over the
evolving persistent store: each execution reads at the coordinator's
current stable snapshot number, so it observes every stream batch the
published SN plan has completed cluster-wide and nothing newer — snapshot
isolation without locks, since stream insertion is append-only (§4.3).

One-shot workers run on dedicated cores separate from the continuous
engine; the small interference the paper measures between the two engines
(Table 8, about 5%) is modelled by a contention factor applied while
continuous queries are actively registered.  Plans come from the engine's
:class:`~repro.core.pipeline.QueryPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.coordinator import Coordinator
from repro.errors import PlanError
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import Query
from repro.sparql.planner import ExecutionPlan
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import ExecutionResult, GraphExplorer
from repro.store.statistics import PredicateStatistics


#: Share of its own latency a one-shot query is surcharged when it ran
#: while continuous workers were busy on the shared store (Table 8).
CONTENTION_FACTOR = 0.05


@dataclass
class OneShotRecord:
    """One completed one-shot execution."""

    result: ExecutionResult
    meter: LatencyMeter
    snapshot: int

    @property
    def latency_ms(self) -> float:
        return self.meter.ms


class OneShotEngine:
    """Executes one-shot queries under snapshot isolation."""

    def __init__(self, cluster: Cluster, store: DistributedStore,
                 coordinator: Coordinator, statistics: PredicateStatistics):
        self.cluster = cluster
        self.store = store
        self.coordinator = coordinator
        #: The engine's live selectivity view (shared with the re-planner).
        self.statistics = statistics
        self.explorer = GraphExplorer(cluster, store.strings)
        self._next_home = 0
        #: The engine's ``repro.core.pipeline.QueryPipeline`` (attached
        #: by ``WukongSEngine``, like the observability hooks below).
        self.pipeline = None
        #: Observability hooks (attached by ``engine.enable_observability``).
        self.tracer = None
        self.metrics = None

    def plan(self, query: Query) -> ExecutionPlan:
        """The compiled plan for ``query``, ordered by the store's live
        selectivity statistics."""
        return self.pipeline.plan(query, stats=self.statistics)

    def execute(self, query: Query, home_node: Optional[int] = None,
                contended: bool = False,
                snapshot: Optional[int] = None,
                access_factory=None, **labels) -> OneShotRecord:
        """Run ``query`` once.

        ``contended`` marks that continuous workers are concurrently busy
        on the shared store (Wukong+S/On in Table 8); ``snapshot``
        overrides the read snapshot (defaults to the stable SN);
        ``access_factory`` (``node_id -> (pattern -> StoreAccess)``)
        overrides the default persistent-store access — the temporal
        engine passes a counting access so snapshot reads are observable
        without touching this hot path, and a time-scoped query passes
        the accesses of its stream scopes (a query over stream windows
        runs only that way).  ``labels`` are extra labels of the traced
        activity.
        """
        if query.is_continuous and access_factory is None:
            raise PlanError(
                "continuous queries must be registered, not run one-shot")
        if home_node is None:
            home_node = self._next_home % self.cluster.num_nodes
            self._next_home += 1
        sn = self.coordinator.stable_sn if snapshot is None else snapshot
        meter = LatencyMeter()
        act = self.tracer.begin("oneshot", "query", meter, snapshot=sn,
                                home_node=home_node,
                                patterns=len(query.patterns), **labels) \
            if self.tracer is not None else None
        meter.charge(self.cluster.cost.task_dispatch_ns, category="dispatch")
        if act is not None:
            act.mark("dispatch")

        if access_factory is not None:
            factory = access_factory
        else:
            def factory(node_id):
                access = PersistentAccess(self.store, home_node=node_id,
                                          max_sn=sn)
                return lambda pattern: access

        plan = self.plan(query)
        if act is not None:
            act.mark("plan", steps=len(plan.steps))
        result = self.explorer.execute(plan, factory, meter,
                                       home_node=home_node)
        if contended:
            meter.surcharge(CONTENTION_FACTOR, "contention")
            if act is not None:
                act.mark("contention")
        if act is not None:
            act.label(rows=len(result))
            act.end()
        if self.metrics is not None:
            self.metrics.histogram("oneshot_ns").observe(meter.ns)
        return OneShotRecord(result=result, meter=meter, snapshot=sn)
