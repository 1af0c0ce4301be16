"""The serving layer: thousands of concurrent queries over shared state.

Ties the pieces together into the "millions of users" front end
(ROADMAP): a :class:`ServingLayer` fronts one engine with a proxy pool
and serves two traffic classes against the *same* window state —

* **Continuous subscriptions** (:meth:`register`): deduplicated through
  the :class:`~repro.serving.registry.SharedQueryRegistry`, so one window
  close feeds every subscriber of a shared plan; each tick fans fresh
  executions out to subscribers (delivery bookkeeping and per-tenant
  latency observation are eager, result decoding stays pull-based on
  :meth:`ServingSubscription.poll` — and shared: the first subscriber to
  poll a close decodes it for all of them).
* **One-shot traffic** (:meth:`submit`): queued per tenant and dispatched
  by the :class:`~repro.serving.scheduler.FairScheduler` between window
  closes, placed on the least injection-loaded node (the dispatchers'
  per-node routed-tuple counters).

Both classes pass :class:`~repro.serving.admission.AdmissionPolicy`
checks at the door; refusals raise typed errors, never drop silently.
A one-shot the engine refuses only when its slot comes up carries the
error on its request handle and costs its own slot, never the tick.

Everything runs on the simulated clock: a served request's latency is
its queue wait (ticks spent in the backlog) plus the client-visible
execution latency, and the per-tenant p50/p99/p999 the bench records are
pure functions of the deterministic simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.metrics import percentile
from repro.client.library import ClientResult, ClientSubscription
from repro.client.procedures import ProcedureCache
from repro.client.proxy import ProxyPool
from repro.core.continuous import ExecutionRecord
from repro.core.engine import WukongSEngine
from repro.errors import (AdmissionError, PlanError, RegistrationError,
                          ReproError)
from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import AdmissionPolicy
from repro.serving.registry import SharedEntry, SharedQueryRegistry
from repro.serving.scheduler import (FairScheduler, OneshotRequest,
                                     ServedOneshot)

#: Percentiles the serving reports carry (the paper's latency trio).
REPORT_PERCENTILES = (50, 99, 99.9)


@dataclass
class TenantState:
    """Per-tenant serving bookkeeping (counters + latency samples)."""

    tenant: str
    subscriptions: int = 0
    oneshots_submitted: int = 0
    oneshots_served: int = 0
    oneshots_rejected: int = 0
    oneshots_failed: int = 0
    registrations_rejected: int = 0
    close_results: int = 0
    #: Simulated latencies (ns): shared-close deliveries and one-shots.
    close_latency_ns: List[float] = field(default_factory=list)
    oneshot_latency_ns: List[float] = field(default_factory=list)

    def latency_percentiles(self, kind: str = "oneshot") -> Dict[str, float]:
        samples = (self.oneshot_latency_ns if kind == "oneshot"
                   else self.close_latency_ns)
        if not samples:
            return {}
        return {f"p{str(p).replace('.', '_')}_ms": percentile(samples, p) / 1e6
                for p in REPORT_PERCENTILES}


@dataclass
class ServingStats:
    """One aggregate snapshot of a serving layer."""

    subscriptions: int
    shared_queries: int
    sharing_ratio: float
    shared_hits: int
    shared_misses: int
    closes_evaluated: int
    results_delivered: int
    executions_saved: int
    oneshots_served: int
    oneshots_rejected: int
    registrations_rejected: int
    backlog: int
    #: Adaptive plan swaps applied across all backing queries
    #: (``repro.core.replan``); re-planning is transparent to
    #: subscribers — the sharing key is the normalized AST, not the plan.
    replans: int = 0
    #: Delivery counters summed over the proxies (one-shot answers
    #: included): results and rows that went through the decoder, and
    #: window-close deliveries that reused a co-subscriber's decode.
    results_decoded: int = 0
    rows_decoded: int = 0
    decodes_shared: int = 0
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        """The serving line of a terminal dashboard."""
        return (
            f"serving: {self.subscriptions:,} subscriptions on "
            f"{self.shared_queries:,} backing queries "
            f"({self.sharing_ratio:.1f}x); {self.closes_evaluated:,} closes "
            f"-> {self.results_delivered:,} deliveries, "
            f"{self.executions_saved:,} executions saved, "
            f"{self.decodes_shared:,} decodes saved "
            f"({self.results_decoded:,} results / {self.rows_decoded:,} "
            f"rows decoded); {self.oneshots_served:,} one-shots served, "
            f"backlog {self.backlog}")


class ServingSubscription:
    """One tenant's subscription, multiplexed onto a shared entry."""

    def __init__(self, serving: "ServingLayer", tenant: str,
                 entry: Optional[SharedEntry],
                 subscription: Optional[ClientSubscription]):
        self.serving = serving
        self.tenant = tenant
        self.entry = entry
        self._subscription = subscription
        self.cancelled = False

    @property
    def shared_name(self) -> str:
        """The backing registration's engine-side name."""
        return self.entry.name

    @property
    def num_cosubscribers(self) -> int:
        return self.entry.num_subscribers

    def poll(self) -> List[ClientResult]:
        """Decode executions delivered since the last poll."""
        return self._subscription.poll()

    def poll_gaps(self):
        """Gap markers of the backing query since the last call."""
        return self._subscription.poll_gaps()

    def cancel(self) -> None:
        """Drop this subscription (the backing query dies with its last
        subscriber, releasing its stream-index interest)."""
        self.serving.unregister(self)


class ServingLayer:
    """Concurrent-query serving over one engine's shared window state."""

    def __init__(self, engine: WukongSEngine,
                 policy: Optional[AdmissionPolicy] = None,
                 num_proxies: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 sharing: bool = True, seed: int = 0):
        self.engine = engine
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.proxies = ProxyPool(engine, num_proxies=num_proxies, seed=seed)
        self.registry = SharedQueryRegistry(engine, sharing=sharing)
        self.scheduler = FairScheduler(self.policy.oneshot_slots_per_tick)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tenants: Dict[str, TenantState] = {}
        #: The door's own parse of one-shot texts: the executing proxy
        #: still prepares through its cache, so its counters never move.
        self._door = ProcedureCache()
        #: Running totals (cheap enough to keep always-on).
        self.closes_evaluated = 0
        self.results_delivered = 0
        self.executions_saved = 0
        self.oneshots_served = 0

    # -- tenants -----------------------------------------------------------
    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(tenant=name)
        return state

    # -- registration ------------------------------------------------------
    def register(self, tenant: str, text: str) -> ServingSubscription:
        """Register a continuous query for ``tenant``.

        Admission first (typed errors; a refusal leaves no trace in the
        engine), then dedup through the shared registry: a plan already
        registered costs one delivery cursor, a new one costs a backing
        registration.
        """
        state = self.tenant(tenant)
        proxy = self.proxies.pick()
        procedure = proxy.prepare(text)
        if not procedure.is_continuous:
            raise RegistrationError(
                "one-shot queries are submitted, not registered; "
                "use submit()")
        creates = self.registry.peek(procedure.query) is None
        try:
            self.policy.admit_registration(
                tenant, total=self.registry.num_subscribers,
                tenant_total=state.subscriptions,
                shared=self.registry.num_shared, creates_shared=creates)
        except AdmissionError:
            state.registrations_rejected += 1
            self.metrics.counter("serving_rejections",
                                 kind="registration").inc()
            raise
        subscription = ServingSubscription(self, tenant, entry=None,
                                           subscription=None)
        entry = self.registry.resolve(procedure.query, subscription)
        subscription.entry = entry
        # Fan-out cursor for new subscribers starts at "now": a
        # subscriber only sees closes that fire after it registered
        # (matching what its own fresh registration would deliver).
        client = proxy.subscribe(procedure, entry.handle, entry.decodes)
        client._delivered = len(entry.handle.executions)
        client._gaps_delivered = len(entry.handle.gaps)
        subscription._subscription = client
        state.subscriptions += 1
        return subscription

    def unregister(self, subscription: ServingSubscription) -> None:
        if subscription.cancelled:
            return
        subscription.cancelled = True
        self.registry.release(subscription.entry, subscription)
        self.tenant(subscription.tenant).subscriptions -= 1

    def disconnect_tenant(self, tenant: str) -> int:
        """A tenant's session ends mid-flight: cancel its subscriptions
        and discard its queued one-shots (removing its scheduler ring
        slot without disturbing the rotation; see
        :meth:`FairScheduler.remove_tenant`).  Returns the number of
        queued one-shots discarded.  The tenant's latency history stays
        for reporting; a later submission re-enters normally.
        """
        for entry in list(self.registry.entries()):
            for subscription in list(entry.subscribers):
                if subscription.tenant == tenant:
                    self.unregister(subscription)
        return self.scheduler.remove_tenant(tenant)

    # -- one-shot traffic --------------------------------------------------
    def submit(self, tenant: str, text: str,
               home_node: Optional[int] = None) -> OneshotRequest:
        """Queue a one-shot request; the next :meth:`tick` dispatches it
        (fairly).  What the door can know is refused here, typed, before
        anything is queued or counted: a text that does not parse or
        plan, a continuous query, a phantom home node, a full backlog."""
        if self._door.get(text).is_continuous:
            raise PlanError(
                "continuous queries must be registered, not submitted; "
                "use register()")
        self.engine.check_home_node(home_node)
        state = self.tenant(tenant)
        try:
            self.policy.admit_oneshot(
                tenant, backlog=self.scheduler.backlog,
                tenant_backlog=self.scheduler.tenant_backlog(tenant))
        except AdmissionError:
            state.oneshots_rejected += 1
            self.metrics.counter("serving_rejections", kind="backlog").inc()
            raise
        request = OneshotRequest(tenant=tenant, text=text,
                                 arrival_ms=self.engine.clock.now_ms,
                                 home_node=home_node)
        self.scheduler.enqueue(request)
        state.oneshots_submitted += 1
        return request

    def _least_loaded_node(self) -> int:
        """The node with the fewest stream tuples routed to it (one-shot
        placement away from injection-hot nodes; ties pick the lowest id)."""
        load: Dict[int, int] = {
            node.node_id: 0 for node in self.engine.cluster.nodes}
        for dispatcher in self.engine.dispatchers.values():
            for node_id, routed in dispatcher.tuples_routed.items():
                load[node_id] += routed
        return min(load, key=lambda node_id: (load[node_id], node_id))

    def _execute(self, request: OneshotRequest,
                 now_ms: int) -> Optional[ServedOneshot]:
        proxy = self.proxies.pick()
        home = request.home_node if request.home_node is not None \
            else self._least_loaded_node()
        state = self.tenant(request.tenant)
        try:
            result = proxy.submit(request.text, home_node=home)
        except ReproError as error:
            # Known only now (e.g. a snapshot that is not stable yet).
            request.error = error
            state.oneshots_failed += 1
            return None
        served = ServedOneshot(request=request, dispatch_ms=now_ms,
                               result=result)
        state.oneshots_served += 1
        state.oneshot_latency_ns.append(served.latency_ns)
        self.metrics.histogram("serving_oneshot_ns",
                               tenant=request.tenant).observe(
                                   served.latency_ns)
        self.oneshots_served += 1
        return served

    # -- the serve loop ----------------------------------------------------
    def tick(self) -> List[ServedOneshot]:
        """One simulated tick of the serve loop.

        Drains the tick's fair share of one-shot slots *before* the clock
        advances — requests queued since the last tick are picked up by
        the dedicated one-shot workers at the current simulated time, so
        an unsaturated tenant's latency is the execution itself
        (sub-millisecond), and only slot exhaustion pushes queue waits
        into tick multiples.  Then the engine steps (window closes
        execute data-driven inside) and fresh closes fan out to
        subscribers.
        """
        served = self.scheduler.drain(self.engine.clock.now_ms,
                                      self._execute)
        self.engine.step()
        self._fan_out()
        return served

    def run_until(self, when_ms: int) -> List[ServedOneshot]:
        served: List[ServedOneshot] = []
        while self.engine.clock.now_ms < when_ms:
            served.extend(self.tick())
        return served

    def _fan_out(self) -> None:
        """Deliver every fresh backing execution to its subscribers."""
        for entry in self.registry.entries():
            executions = entry.handle.executions
            fresh: List[ExecutionRecord] = executions[entry.delivered:]
            if not fresh:
                continue
            entry.delivered = len(executions)
            self.closes_evaluated += len(fresh)
            fanout = entry.num_subscribers
            entry.fanned_out += len(fresh) * fanout
            self.results_delivered += len(fresh) * fanout
            self.executions_saved += len(fresh) * (fanout - 1)
            self.metrics.counter("serving_shared_close_hits").inc(
                len(fresh) * (fanout - 1))
            latencies = [record.meter.ns for record in fresh]
            for subscription in entry.subscribers:
                state = self.tenant(subscription.tenant)
                state.close_results += len(fresh)
                state.close_latency_ns.extend(latencies)
                observe = self.metrics.histogram(
                    "serving_close_ns", tenant=subscription.tenant).observe
                for latency in latencies:
                    observe(latency)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> ServingStats:
        proxy_stats = [proxy.stats for proxy in self.proxies.proxies]
        tenants = {}
        for name in sorted(self.tenants):
            state = self.tenants[name]
            report = {"subscriptions": state.subscriptions,
                      "oneshots_served": state.oneshots_served,
                      "close_results": state.close_results}
            report.update({f"oneshot_{k}": v for k, v in
                           state.latency_percentiles("oneshot").items()})
            report.update({f"close_{k}": v for k, v in
                           state.latency_percentiles("close").items()})
            tenants[name] = report
        return ServingStats(
            subscriptions=self.registry.num_subscribers,
            shared_queries=self.registry.num_shared,
            sharing_ratio=self.registry.sharing_ratio,
            shared_hits=self.registry.shared_hits,
            shared_misses=self.registry.shared_misses,
            closes_evaluated=self.closes_evaluated,
            results_delivered=self.results_delivered,
            executions_saved=self.executions_saved,
            oneshots_served=self.oneshots_served,
            oneshots_rejected=sum(t.oneshots_rejected
                                  for t in self.tenants.values()),
            registrations_rejected=sum(t.registrations_rejected
                                       for t in self.tenants.values()),
            backlog=self.scheduler.backlog,
            replans=self.registry.total_replans,
            results_decoded=sum(s.results_decoded for s in proxy_stats),
            rows_decoded=sum(s.rows_decoded for s in proxy_stats),
            decodes_shared=sum(s.decodes_shared for s in proxy_stats),
            tenants=tenants)

    def latency_percentiles(self, kind: str = "oneshot"
                            ) -> Dict[str, float]:
        """Aggregate p50/p99/p999 (ms) across all tenants' samples."""
        samples: List[float] = []
        for state in self.tenants.values():
            samples.extend(state.oneshot_latency_ns if kind == "oneshot"
                           else state.close_latency_ns)
        if not samples:
            return {}
        return {f"p{str(p).replace('.', '_')}_ms": percentile(samples, p) / 1e6
                for p in REPORT_PERCENTILES}
