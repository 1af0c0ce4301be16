"""SPARQL-T temporal querying over the versioned store (repro.temporal).

The store has paid for time-travel since day one — every value-list
entry carries the snapshot number of the batch that inserted it, and
the GC frontier (bounded scalarization) is the only thing that forgets.
This package turns that machinery into a query family, after
wukong-cube's tRDF/SPARQL-T dialect:

* ``FROM SNAPSHOT <t>`` point-in-time queries: the whole query reads at
  snapshot ``t`` instead of the current stable SN, pinned against the
  GC frontier for the duration of the read (``Coordinator.pin_snapshot``);
* quintuple patterns ``?s ?p ?o [?ts, ?te)`` binding each matched
  entry's valid-time interval (insertion SN, open end), with interval
  FILTERs (OVERLAPS / DURING / BEFORE / AFTER / STARTS).

Both are ordinary plans on the one execution path: the package holds
what is temporal about running them — snapshot validation and pinning,
traversal counters (:mod:`repro.temporal.engine`) — and the brute-force
row oracle the whole engine is checked against
(:mod:`repro.temporal.reference`); binding ``?ts`` / ``?te`` is the
graph explorer's version-carrying kernel, interval relations live with
the other FILTER semantics in :mod:`repro.sparql.evaluate`.

Snapshots the version chains can no longer (or not yet) reconstruct are
refused with typed :class:`~repro.errors.TemporalError` subclasses —
never answered silently wrong.
"""

from repro.sparql.evaluate import interval_op_holds
from repro.temporal.engine import TemporalEngine, TemporalRecord
from repro.temporal.reference import dump_history, reference_rows

__all__ = [
    "TemporalEngine",
    "TemporalRecord",
    "interval_op_holds",
    "dump_history",
    "reference_rows",
]
