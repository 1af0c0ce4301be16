"""The client library: text in, decoded results out.

Wraps a :class:`~repro.core.engine.WukongSEngine` endpoint with the
client-side responsibilities of §3:

* parse query text into cached stored procedures;
* resolve constant strings to IDs through the string server (one round
  trip per *new* constant — long strings never travel with queries);
* submit one-shot queries / register continuous ones;
* decode result vids back to strings for the application — a column at
  a time (:meth:`ClientLibrary._decode_rows`), and once per window close
  for all the subscriptions a proxy pool multiplexes onto one backing
  query (:class:`SharedDecodes`).

Latencies reported to the client optionally include the client<->server
round trip (``include_network``); the paper's tables report server-side
latency, which remains available as ``server_latency_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.procedures import ProcedureCache, StoredProcedure
from repro.core.continuous import ExecutionRecord, RegisteredQuery
from repro.core.engine import WukongSEngine
from repro.core.pipeline import LRUCache
from repro.errors import PlanError, RegistrationError, StoreError
from repro.rdf.string_server import StringServer

#: Approximate request/response payload sizes (bytes).
_REQUEST_BYTES = 96
_ROW_BYTES = 48

#: Rows transposed to columns at a time.  Large enough that the per-block
#: Python overhead vanishes, small enough that the transient columns of a
#: 500 k-row answer stay ~1 MB instead of a second copy of the answer.
_DECODE_BLOCK_ROWS = 32_768

#: Executions per backing query whose decoded rows stay shared.  A
#: subscriber polling every tick needs one; a few more keep a catch-up
#: tick (several closes at once after a recovery) decoded once as well.
SHARED_DECODES_RETAINED = 4


@dataclass
class ClientResult:
    """A decoded one-shot answer."""

    columns: List[str]
    rows: List[Tuple[object, ...]]
    server_latency_ms: float
    client_latency_ms: float
    snapshot: int

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class DeliveryStats:
    """Result-delivery counters of one client library."""

    #: Results whose rows went through the decoder (one-shot answers and
    #: window closes alike).
    results_decoded: int = 0
    rows_decoded: int = 0
    #: Window-close deliveries served from a co-subscriber's decode.
    decodes_shared: int = 0


class SharedDecodes:
    """Decoded rows of one backing query's latest executions.

    The serving layer multiplexes N subscriptions onto one backing
    registration; every one of them would decode the same
    :class:`~repro.core.continuous.ExecutionRecord` to the same rows.
    The first subscriber to poll a close leaves its decoded rows here,
    keyed by the execution's position in the (append-only)
    ``handle.executions``; the others take a shallow copy.  Only the
    :data:`SHARED_DECODES_RETAINED` most recent executions are kept, so
    a stalled subscriber re-decodes what it missed instead of pinning it.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, List[Tuple[object, ...]]] = {}

    def get(self, index: int) -> Optional[List[Tuple[object, ...]]]:
        return self._rows.get(index)

    def put(self, index: int, rows: List[Tuple[object, ...]],
            executions: int) -> None:
        """Keep ``rows`` for execution ``index`` of ``executions`` so
        far, unless it is already older than the retained few."""
        oldest = executions - SHARED_DECODES_RETAINED
        if index < oldest:
            return
        retained = self._rows
        retained[index] = rows
        for stale in [i for i in retained if i < oldest]:
            del retained[stale]

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class ClientSubscription:
    """A registered continuous query, with incremental result delivery."""

    library: "ClientLibrary"
    procedure: StoredProcedure
    handle: RegisteredQuery
    #: Set when this subscription is multiplexed onto a backing query it
    #: shares with others (:meth:`ClientLibrary.subscribe`).
    shared: Optional[SharedDecodes] = None
    _delivered: int = 0
    _gaps_delivered: int = 0

    def poll(self) -> List[ClientResult]:
        """Decode executions completed since the last poll."""
        library = self.library
        executions = self.handle.executions
        first, self._delivered = self._delivered, len(executions)
        snapshot = library.engine.coordinator.stable_sn
        out: List[ClientResult] = []
        for index in range(first, self._delivered):
            record = executions[index]
            out.append(library._deliver(
                record.result, self._decoded(index, record), record.meter,
                snapshot))
        return out

    def _decoded(self, index: int,
                 record: ExecutionRecord) -> List[Tuple[object, ...]]:
        """This subscriber's own list of execution ``index``'s decoded
        rows — decoded here, or by whichever co-subscriber came first."""
        library, shared = self.library, self.shared
        if shared is None:
            return library._decode_rows(self.procedure, record.result.rows)
        rows = shared.get(index)
        if rows is None:
            rows = library._decode_rows(self.procedure, record.result.rows)
            shared.put(index, rows, len(self.handle.executions))
        else:
            library.stats.decodes_shared += 1
        return list(rows)

    def poll_gaps(self) -> List:
        """Gap markers noted since the last call (graceful degradation).

        While the cluster is degraded the engine reports each missed
        window close as a :class:`~repro.core.continuous.GapMarker`
        instead of silently skipping it; the marker's ``resolved_ms`` is
        filled in (on the same object) once recovery catches up and the
        late execution is delivered through :meth:`poll`.
        """
        new = self.handle.gaps[self._gaps_delivered:]
        self._gaps_delivered = len(self.handle.gaps)
        return list(new)

    @property
    def name(self) -> str:
        return self.handle.name


class ClientLibrary:
    """One client's connection to the engine."""

    def __init__(self, engine: WukongSEngine, client_id: str = "client0",
                 include_network: bool = True):
        self.engine = engine
        self.client_id = client_id
        self.include_network = include_network
        self.cache = ProcedureCache()
        #: Constants already resolved to IDs (bounded: forgetting one
        #: costs one more counted round trip, nothing simulated).
        self._known_constants = LRUCache()
        self.string_server_roundtrips = 0
        self.stats = DeliveryStats()

    # -- submission ------------------------------------------------------
    def submit(self, text: str,
               home_node: Optional[int] = None) -> ClientResult:
        """Execute a one-shot query and decode its answer."""
        procedure = self.prepare(text)
        if procedure.is_continuous:
            raise PlanError(
                "continuous queries must be registered, not submitted; "
                "use register()")
        record = self.engine.oneshot(procedure.query, home_node=home_node)
        result = record.result
        return self._deliver(result,
                             self._decode_rows(procedure, result.rows),
                             record.meter, record.snapshot)

    def register(self, text: str,
                 home_node: Optional[int] = None) -> ClientSubscription:
        """Register a continuous query; poll the subscription for results."""
        procedure = self.prepare(text)
        if not procedure.is_continuous:
            raise RegistrationError("one-shot queries are submitted, not "
                                    "registered; use submit()")
        handle = self.engine.register_continuous(procedure.query,
                                                 home_node=home_node)
        return ClientSubscription(library=self, procedure=procedure,
                                  handle=handle)

    def subscribe(self, procedure: StoredProcedure, handle: RegisteredQuery,
                  shared: SharedDecodes) -> ClientSubscription:
        """Multiplex a subscription onto an existing registration.

        The serving layer's common-subplan sharing registers *one* backing
        continuous query per distinct normalized AST + window spec and
        fans each window close out to every subscriber: each subscription
        returned here keeps its own delivery cursor over the shared
        handle's executions, so N clients read the same execution records
        independently — one evaluation, one decode (``shared``, owned by
        the backing entry), N deliveries.
        """
        if not procedure.is_continuous:
            raise RegistrationError("one-shot procedures cannot subscribe "
                                    "to a continuous registration")
        return ClientSubscription(library=self, procedure=procedure,
                                  handle=handle, shared=shared)

    # -- client-side steps --------------------------------------------------
    def prepare(self, text: str) -> StoredProcedure:
        """Parse (cached) and resolve new constants via the string server."""
        procedure = self.cache.get(text)
        known = self._known_constants
        fresh = [c for c in procedure.constants() if not known.get(c)]
        if fresh:
            # One batched round trip resolves all new strings to IDs.
            self.string_server_roundtrips += 1
            for constant in fresh:
                known.put(constant, True)
        return procedure

    def _decode_rows(self, procedure: StoredProcedure,
                     rows: Sequence[Tuple[object, ...]]
                     ) -> List[Tuple[object, ...]]:
        """Decode vids to strings; aggregate values pass through.

        Columnar: each block of rows is transposed, every projected
        variable's column goes through the string server in one call,
        and the columns are zipped back into row tuples.
        """
        self.stats.results_decoded += 1
        self.stats.rows_decoded += len(rows)
        if not rows:
            return []
        width = len(rows[0])
        query = procedure.query
        # Columns from here on hold aggregate values, not vids.
        names_end = min(len(query.group_by), width) if query.aggregates \
            else width
        if not names_end:  # ASK's zero-width rows, ungrouped aggregates
            return list(map(tuple, rows))
        strings = self.engine.strings
        getters = [itemgetter(index) for index in range(width)]
        decoded: List[Tuple[object, ...]] = []
        for start in range(0, len(rows), _DECODE_BLOCK_ROWS):
            block = rows[start:start + _DECODE_BLOCK_ROWS]
            columns = [list(map(getter, block)) for getter in getters]
            for index in range(names_end):
                columns[index] = _decode_column(strings, columns[index])
            decoded.extend(zip(*columns))
        return decoded

    def _deliver(self, result, rows: List[Tuple[object, ...]], meter,
                 snapshot: int) -> ClientResult:
        """One client's copy of an answer, with the latency it saw: the
        server's reading plus, with ``include_network``, one client round
        trip priced by the fabric."""
        server_ps = meter.ps
        client_ps = server_ps
        if self.include_network:
            payload = _REQUEST_BYTES + _ROW_BYTES * len(result.rows)
            client_ps += self.engine.cluster.fabric.message_ps(payload)
        return ClientResult(
            columns=list(result.variables), rows=rows,
            server_latency_ms=server_ps / 1_000_000_000,
            client_latency_ms=client_ps / 1_000_000_000, snapshot=snapshot)


def _decode_column(strings: StringServer,
                   column: List[object]) -> List[Optional[str]]:
    """Names for one column of vids; a cell that is not a positive int
    (an unbound OPTIONAL's -1, the index vertex, None) decodes to None."""
    try:
        return strings.entity_names(column)
    except (StoreError, TypeError):
        # Not purely entity vids (TypeError: a cell that is no number,
        # or no index).  Look the bound cells up on their own; a vid the
        # string server does not know raises StoreError again here.
        bound = [isinstance(value, int) and value > 0 for value in column]
        names = iter(strings.entity_names(list(compress(column, bound))))
        return [next(names) if is_bound else None for is_bound in bound]
