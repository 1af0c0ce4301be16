"""Stored procedures: client-side parsed queries.

The client library "can parse continuous and one-shot queries into a set
of stored procedures, which will be immediately executed for one-shot
queries or registered for continuous queries on the server side" (§3).
Parsing happens once per distinct query text; repeated submissions reuse
the cached procedure, which is how web front-ends serve many users with a
small query catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.pipeline import LRUCache
from repro.errors import PlanError
from repro.sparql.ast import Query, is_variable
from repro.sparql.parser import parse_query


@dataclass(frozen=True)
class StoredProcedure:
    """One parsed query, ready for submission (the engine plans it, with
    live statistics, when it runs)."""

    text: str
    query: Query

    @property
    def is_continuous(self) -> bool:
        return self.query.is_continuous

    def constants(self) -> List[str]:
        """The constant terms whose IDs the client must resolve up front
        (the string-server round trip that keeps long strings off the
        servers)."""
        seen: List[str] = []
        for pattern in self.query.patterns:
            for term in (pattern.subject, pattern.object):
                if not is_variable(term) and term not in seen:
                    seen.append(term)
        return seen


class ProcedureCache(LRUCache):
    """Per-client cache of parsed procedures, bounded like every cache
    of the query path (:class:`~repro.core.pipeline.LRUCache`)."""

    def get(self, text: str) -> StoredProcedure:
        """Parse (or fetch the cached) procedure for ``text``."""
        procedure = super().get(text)
        if procedure is None:
            query = parse_query(text)
            # Refuse at the door what the engine cannot plan: a refusal
            # here leaves no trace in it (no half-made registration).
            for pattern in query.patterns:
                if is_variable(pattern.predicate):
                    raise PlanError(
                        f"variable predicates are unsupported: {pattern}")
            procedure = StoredProcedure(text=text, query=query)
            self.put(text, procedure)
        return procedure
