"""Per-tenant fair scheduling of one-shot traffic on the simulated clock.

The serving layer's one-shot capacity is a fixed number of execution
slots per simulated tick (dedicated one-shot workers, §5 of the paper —
continuous closes never compete for these slots; they run data-driven in
the engine step the scheduler interleaves with).  The scheduler divides
the slots round-robin across tenants, one request per tenant per round,
with a rotating starting tenant so slot exhaustion hits each tenant
equally in turn.  The guarantee is the classic one: in any tick where a
tenant has work queued, it receives at least ``floor(slots / active
tenants)`` slots — a tenant flooding its own queue lengthens *its* wait,
never a well-behaved neighbour's
(``tests/serving/test_admission_fairness.py`` asserts the p99 bound).

Everything is deterministic: tenants are visited in first-submission
order, queues are FIFO, and time comes from the engine's virtual clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional


@dataclass
class OneshotRequest:
    """One queued one-shot submission."""

    tenant: str
    text: str
    #: Simulated arrival time (clock at submission).
    arrival_ms: int
    #: Explicit home node; None lets the serving layer place the request
    #: on the least injection-loaded node.
    home_node: Optional[int] = None
    #: The typed error of a request the engine refused at dispatch.
    error: Optional[Exception] = None


@dataclass
class ServedOneshot:
    """One dispatched request with its client-visible latency."""

    request: OneshotRequest
    dispatch_ms: int
    result: object  # ClientResult

    @property
    def queue_wait_ms(self) -> float:
        return float(self.dispatch_ms - self.request.arrival_ms)

    @property
    def latency_ms(self) -> float:
        """Queue wait plus the client-visible execution latency."""
        return self.queue_wait_ms + self.result.client_latency_ms

    @property
    def latency_ns(self) -> float:
        return self.latency_ms * 1e6


class FairScheduler:
    """Rotating round-robin over per-tenant FIFO queues."""

    def __init__(self, slots_per_tick: int = 64):
        if slots_per_tick < 1:
            raise ValueError(
                f"need at least one slot per tick: {slots_per_tick}")
        self.slots_per_tick = slots_per_tick
        self._queues: Dict[str, Deque[OneshotRequest]] = {}
        #: Tenants in first-submission order (the round-robin ring).
        self._ring: List[str] = []
        #: Ring index the next drain starts at.
        self._cursor = 0

    # -- queueing ----------------------------------------------------------
    def enqueue(self, request: OneshotRequest) -> None:
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = self._queues[request.tenant] = deque()
            self._ring.append(request.tenant)
        queue.append(request)

    @property
    def backlog(self) -> int:
        """Total queued requests across all tenants."""
        return sum(len(q) for q in self._queues.values())

    def tenant_backlog(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    # -- dispatch ----------------------------------------------------------
    def drain(self, now_ms: int,
              execute: Callable[[OneshotRequest, int],
                                Optional[ServedOneshot]]
              ) -> List[ServedOneshot]:
        """Dispatch up to ``slots_per_tick`` requests fairly.

        Visits tenants one request at a time starting at the rotating
        cursor; a tenant with an empty queue is skipped without consuming
        a slot.  The cursor ends just past the last tenant visited, so
        whoever missed out this tick goes first next tick.  ``execute``
        returns None for a request it refused; the slot is spent anyway.
        """
        served: List[ServedOneshot] = []
        ring = self._ring
        if not ring:
            return served
        slots = self.slots_per_tick
        size = len(ring)
        index = self._cursor % size
        empty_streak = 0
        while slots > 0 and empty_streak < size:
            tenant = ring[index % size]
            queue = self._queues[tenant]
            if queue:
                outcome = execute(queue.popleft(), now_ms)
                if outcome is not None:
                    served.append(outcome)
                slots -= 1
                empty_streak = 0
            else:
                empty_streak += 1
            index += 1
        self._cursor = index % size
        return served
