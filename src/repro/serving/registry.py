"""Common-subplan sharing: one backing registration serves N subscribers.

Strider (arXiv:1705.05688) motivates sharing evaluation work across
simultaneously registered streaming queries instead of evaluating each in
isolation.  The sharing rule here is exact-plan sharing: two registrations
share one backing continuous query iff their *normalized ASTs and window
specs* are equal — :meth:`repro.sparql.ast.Query.cache_key`, which
excludes the registration name and sorts window specs, so ``REGISTER
QUERY A`` and ``REGISTER QUERY B`` over the same patterns and windows
land on the same entry.  Equal keys plan, compile and execute
identically, which makes the sharing *provably* answer-preserving: the
shared execution is bit-identical (rows and simulated meters) to what
each subscriber's private evaluation would produce
(``tests/serving/test_sharing_property.py`` checks this differentially).

Each entry counts its subscribers; the backing registration is created on
the first subscriber and unregistered (dropping its stream-index
interest) when the last one leaves.

Adaptive re-planning (``repro.core.replan``) is transparent to sharing:
the sharing key is the *normalized AST*, never the plan, and a plan swap
mutates the backing :class:`~repro.core.continuous.RegisteredQuery` in
place — every subscriber's delivery cursor keeps pointing at the same
handle, so a re-planned backing query keeps serving all its subscribers
without re-registration (``tests/serving/test_replan_serving.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.client.library import SharedDecodes
from repro.core.continuous import RegisteredQuery
from repro.sparql.ast import Query


@dataclass
class SharedEntry:
    """One backing registration and its subscriber bookkeeping."""

    key: Tuple
    name: str
    handle: RegisteredQuery
    #: Live subscriber objects (the serving layer's subscriptions), in
    #: registration order — window-close fan-out iterates this list.
    subscribers: List[object] = field(default_factory=list)
    #: Executions already fanned out to subscribers (delivery cursor).
    delivered: int = 0
    #: Decoded rows of the latest executions, shared by the subscribers
    #: (sharing covers the decode as well as the evaluation).
    decodes: SharedDecodes = field(default_factory=SharedDecodes)

    @property
    def num_subscribers(self) -> int:
        return len(self.subscribers)


class SharedQueryRegistry:
    """Dedup of continuous registrations by normalized AST + window spec.

    With ``sharing=False`` every registration gets its own backing query
    (the differential baseline the tests and the bench compare against);
    the counters still tick so both modes report the same shape.
    """

    def __init__(self, engine, sharing: bool = True):
        self.engine = engine
        self.sharing = sharing
        self._entries: Dict[Tuple, SharedEntry] = {}
        self._next_id = 0
        #: Registrations served by an existing backing query (dedup hits)
        #: vs registrations that had to create one.
        self.shared_hits = 0
        self.shared_misses = 0

    # -- lookup ------------------------------------------------------------
    def peek(self, query: Query) -> Optional[SharedEntry]:
        """The entry ``query`` would share, if one exists (no side effects:
        admission control asks this before committing a registration)."""
        if not self.sharing:
            return None
        return self._entries.get(query.cache_key())

    def resolve(self, query: Query, subscriber: object,
                home_node: Optional[int] = None) -> SharedEntry:
        """Attach ``subscriber`` to the entry for ``query``, creating the
        backing registration on first use."""
        key = query.cache_key() if self.sharing else ("unshared",
                                                      self._next_id)
        entry = self._entries.get(key)
        if entry is None:
            self.shared_misses += 1
            name = f"shared{self._next_id}"
            self._next_id += 1
            handle = self.engine.register_continuous(query, name=name,
                                                     home_node=home_node)
            entry = SharedEntry(key=key, name=name, handle=handle)
            self._entries[key] = entry
        else:
            self.shared_hits += 1
        entry.subscribers.append(subscriber)
        return entry

    def release(self, entry: SharedEntry, subscriber: object) -> None:
        """Detach one subscriber; drop the backing query with the last."""
        entry.subscribers.remove(subscriber)
        if not entry.subscribers:
            self.engine.continuous.unregister(entry.name)
            del self._entries[entry.key]
            # Cancelled subscriptions may outlive the entry; the decoded
            # rows must not.
            entry.decodes.clear()

    # -- iteration / accounting --------------------------------------------
    def entries(self) -> List[SharedEntry]:
        """All live entries, in creation order (dicts preserve it)."""
        return list(self._entries.values())

    @property
    def num_shared(self) -> int:
        """Distinct backing registrations currently live."""
        return len(self._entries)

    @property
    def num_subscribers(self) -> int:
        return sum(len(e.subscribers) for e in self._entries.values())

    @property
    def sharing_ratio(self) -> float:
        """Subscribers per backing registration (1.0 = no sharing)."""
        shared = self.num_shared
        return self.num_subscribers / shared if shared else 0.0

    @property
    def total_replans(self) -> int:
        """Adaptive plan swaps applied across live backing queries."""
        return sum(len(e.handle.replans) for e in self._entries.values())
