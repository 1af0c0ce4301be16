"""Dedicated proxies: running the client library near the cluster.

"Alternatively, Wukong+S can use a set of dedicated proxies to run the
client-side library and balance client requests" (§3).  A
:class:`ProxyPool` spreads one-shot submissions across proxies (and the
proxies spread them across server nodes), so a massive client population
never funnels through one node.  Each proxy shares one procedure cache
across all the clients it fronts — the multiplexing benefit of proxies.

Robustness semantics (§5's client-visible side): a request against a
degraded cluster is *not* executed — a dead node's shard is empty, so the
answer would be silently partial.  Instead the request times out (a
per-request budget in simulated ns), and the proxy retries it with bounded
exponential backoff and full jitter drawn from the seeded deterministic
RNG.  Once the cluster heals — e.g. after ``recover_node`` replays the
durable log — the retry succeeds and the client sees the complete answer,
with the waiting time folded into its client-side latency.  Requests that
exhaust their attempt budget fail explicitly with
:class:`~repro.errors.ProxyTimeoutError`, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.client.library import ClientLibrary, ClientResult, \
    ClientSubscription, DeliveryStats, SharedDecodes
from repro.core.engine import WukongSEngine
from repro.errors import ProxyTimeoutError
from repro.sim.rng import stable_rng


@dataclass
class RetryPolicy:
    """Timeout/backoff tunables of one proxy (simulated nanoseconds)."""

    #: Per-attempt budget before the request is declared timed out.
    timeout_ns: float = 2_000_000.0
    #: First backoff; doubles each attempt (bounded exponential).
    backoff_base_ns: float = 250_000.0
    #: Backoff ceiling.
    backoff_cap_ns: float = 8_000_000.0
    #: Attempts before giving up (the first submission counts as one).
    max_attempts: int = 64

    def backoff_ns(self, attempt: int, rng) -> float:
        """Jittered backoff before attempt ``attempt + 1`` (full jitter:
        uniform in [cap/2, cap], from the seeded RNG only)."""
        cap = min(self.backoff_cap_ns,
                  self.backoff_base_ns * (2 ** max(0, attempt - 1)))
        return cap * (0.5 + 0.5 * rng.random())


@dataclass
class PendingRequest:
    """One client request being retried against a degraded cluster."""

    text: str
    submitted_ms: float
    attempts: int = 0
    #: Simulated ns spent waiting so far (timeouts + backoffs).
    waited_ns: float = 0.0
    #: Backoff durations drawn so far (ns), for observability.
    backoffs_ns: List[float] = field(default_factory=list)
    #: Simulated time before which no retry fires.
    next_attempt_ms: float = 0.0
    result: Optional[ClientResult] = None
    failed: bool = False

    @property
    def done(self) -> bool:
        return self.result is not None or self.failed

    @property
    def waited_ms(self) -> float:
        return self.waited_ns / 1e6


@dataclass
class ProxyStats(DeliveryStats):
    """Request counters for one proxy, on top of the delivery counters
    of the library it runs."""

    oneshot_requests: int = 0
    registrations: int = 0
    #: Subscriptions multiplexed onto an already-registered backing query
    #: (the serving layer's common-subplan sharing): no engine-side
    #: registration happened, only a new delivery cursor.
    multiplexed_subscriptions: int = 0
    timeouts: int = 0
    retries: int = 0
    failures: int = 0


class Proxy:
    """One proxy: a shared client library pinned near one server node."""

    def __init__(self, engine: WukongSEngine, proxy_id: int,
                 affinity_node: int, policy: Optional[RetryPolicy] = None,
                 seed: int = 0):
        self.proxy_id = proxy_id
        self.affinity_node = affinity_node
        self.library = ClientLibrary(engine, client_id=f"proxy{proxy_id}")
        self.policy = policy if policy is not None else RetryPolicy()
        # One set of counters per proxy: the library counts its decodes
        # straight into the proxy's stats.
        self.stats = self.library.stats = ProxyStats()
        self.pending: List[PendingRequest] = []
        self._rng = stable_rng(seed, "proxy-retry", proxy_id)

    @property
    def engine(self) -> WukongSEngine:
        return self.library.engine

    def submit(self, text: str,
               home_node: Optional[int] = None) -> ClientResult:
        """Fire-and-hope submission (healthy-path API, unchanged).

        ``home_node`` overrides this proxy's node affinity — the serving
        layer uses it to steer one-shot traffic to the least
        injection-loaded node instead of the proxy's pinned neighbour.
        """
        self.stats.oneshot_requests += 1
        home = self.affinity_node if home_node is None else home_node
        return self.library.submit(text, home_node=home)

    def register(self, text: str) -> ClientSubscription:
        self.stats.registrations += 1
        # Continuous queries keep locality-aware placement: the engine
        # decides the home node, not the proxy.
        return self.library.register(text, home_node=None)

    def prepare(self, text: str):
        """Parse ``text`` through this proxy's shared procedure cache."""
        return self.library.prepare(text)

    def subscribe(self, procedure, handle,
                  shared: SharedDecodes) -> ClientSubscription:
        """Multiplex a subscription onto an existing backing registration
        (serving-layer plan sharing; no engine-side registration).
        ``shared`` is the backing entry's decoded-rows holder."""
        self.stats.multiplexed_subscriptions += 1
        return self.library.subscribe(procedure, handle, shared)

    # -- robust submission ---------------------------------------------------
    def _cluster_serving(self) -> bool:
        return self.engine.cluster.all_alive

    def submit_robust(self, text: str) -> PendingRequest:
        """Submit with timeout/retry semantics.

        Against a healthy cluster this is one immediate attempt.  Against
        a degraded cluster the request times out, is queued, and retried
        by :meth:`pump` on the backoff schedule until the cluster heals or
        the attempt budget runs out.
        """
        now_ms = self.engine.clock.now_ms
        request = PendingRequest(text=text, submitted_ms=now_ms)
        if self._cluster_serving():
            request.attempts = 1
            request.result = self.submit(text)
            return request
        self._note_timeout(request)
        self.pending.append(request)
        return request

    def _note_timeout(self, request: PendingRequest) -> None:
        """One attempt timed out: draw the next jittered backoff."""
        request.attempts += 1
        self.stats.timeouts += 1
        backoff = self.policy.backoff_ns(request.attempts, self._rng)
        request.backoffs_ns.append(backoff)
        request.waited_ns += self.policy.timeout_ns + backoff
        request.next_attempt_ms = request.submitted_ms + request.waited_ms

    def pump(self) -> List[PendingRequest]:
        """Retry due pending requests; returns the ones that completed.

        Call once per simulated tick (the engine does not call this; the
        proxy is client-side).  A retry against a still-degraded cluster
        times out again and backs off further; against a healed cluster it
        executes, and the accumulated waiting time is folded into the
        result's client-visible latency.
        """
        now_ms = self.engine.clock.now_ms
        finished: List[PendingRequest] = []
        for request in self.pending:
            while not request.done and request.next_attempt_ms <= now_ms:
                if self._cluster_serving():
                    self.stats.retries += 1
                    request.attempts += 1  # the attempt that succeeds
                    result = self.submit(request.text)
                    result.client_latency_ms += request.waited_ms
                    request.result = result
                elif request.attempts >= self.policy.max_attempts:
                    request.failed = True
                    self.stats.failures += 1
                else:
                    self.stats.retries += 1
                    self._note_timeout(request)
            if request.done:
                finished.append(request)
        self.pending = [r for r in self.pending if not r.done]
        return finished

    def wait_for(self, request: PendingRequest) -> ClientResult:
        """The request's result; raises if it (has) failed."""
        if request.failed:
            raise ProxyTimeoutError(
                f"request gave up after {request.attempts} attempts "
                f"({request.waited_ms:.3f} ms waited): {request.text!r}")
        if request.result is None:
            raise ProxyTimeoutError(
                f"request still pending after {request.attempts} attempts; "
                f"pump() the proxy as simulated time advances")
        return request.result


class ProxyPool:
    """Round-robin load balancing over a set of proxies."""

    def __init__(self, engine: WukongSEngine,
                 num_proxies: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None, seed: int = 0):
        if num_proxies is None:
            num_proxies = engine.cluster.num_nodes
        if num_proxies < 1:
            raise ValueError(f"need at least one proxy: {num_proxies}")
        self.engine = engine
        self.proxies: List[Proxy] = [
            Proxy(engine, proxy_id=i,
                  affinity_node=i % engine.cluster.num_nodes,
                  policy=policy, seed=seed)
            for i in range(num_proxies)
        ]
        self._next = 0

    def pick(self) -> Proxy:
        """The next proxy in round-robin order (load balancing)."""
        proxy = self.proxies[self._next % len(self.proxies)]
        self._next += 1
        return proxy

    def submit(self, text: str) -> ClientResult:
        """Route a one-shot query through the next proxy."""
        return self.pick().submit(text)

    def submit_robust(self, text: str) -> PendingRequest:
        """Route a one-shot query with timeout/retry semantics."""
        return self.pick().submit_robust(text)

    def register(self, text: str) -> ClientSubscription:
        """Register a continuous query through the next proxy."""
        return self.pick().register(text)

    def pump(self) -> List[PendingRequest]:
        """Drive every proxy's retry queue; returns completed requests."""
        finished: List[PendingRequest] = []
        for proxy in self.proxies:
            finished.extend(proxy.pump())
        return finished

    # -- observability ----------------------------------------------------
    def request_counts(self) -> Dict[int, int]:
        return {proxy.proxy_id: proxy.stats.oneshot_requests
                for proxy in self.proxies}

    @property
    def total_requests(self) -> int:
        return sum(p.stats.oneshot_requests for p in self.proxies)

    @property
    def total_pending(self) -> int:
        return sum(len(p.pending) for p in self.proxies)
