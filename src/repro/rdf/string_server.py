"""The string server: bidirectional string <-> ID mapping.

As in Wukong, clients never ship long strings to the servers; each term is
first converted to a compact integer ID by a shared string server, saving
network bandwidth.  Entities and predicates live in distinct ID spaces
(predicates become edge IDs, entities become vertex IDs).  Vertex ID 0 is
reserved for index vertices, so entity IDs start at 1.

The paper notes that the mapping table skips garbage collection entirely —
one-shot queries may refer to any entity at any time — and so does this
implementation: IDs are never reclaimed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError
from repro.rdf.ids import INDEX_VID, MAX_EID, MAX_VID
from repro.rdf.terms import EncodedColumns, TimedColumns, Triple

#: Cut a row of triples into its subject, predicate and object columns.
_CUTS = itemgetter(0), itemgetter(1), itemgetter(2)


def _none_rows(column: List[Optional[int]]) -> Set[int]:
    """The rows of ``column`` holding None (one C-level scan per hit)."""
    rows: Set[int] = set()
    i = -1
    try:
        while True:
            i = column.index(None, i + 1)
            rows.add(i)
    except ValueError:
        return rows


class StringServer:
    """Assigns and resolves entity vids and predicate eids.

    >>> server = StringServer()
    >>> logan = server.entity_id("Logan")
    >>> server.entity_id("Logan") == logan
    True
    >>> server.entity_name(logan)
    'Logan'
    """

    def __init__(self) -> None:
        self._entity_ids: Dict[str, int] = {}
        self._entity_names: List[Optional[str]] = [None]  # vid 0 = INDEX
        self._predicate_ids: Dict[str, int] = {}
        self._predicate_names: List[Optional[str]] = [None]  # eid 0 reserved

    # -- allocation / lookup -------------------------------------------
    def entity_id(self, name: str) -> int:
        """Return the vid for ``name``, allocating one on first sight."""
        vid = self._entity_ids.get(name)
        if vid is None:
            vid = len(self._entity_names)
            if vid > MAX_VID:
                raise StoreError("entity ID space exhausted (46-bit)")
            self._entity_ids[name] = vid
            self._entity_names.append(name)
        return vid

    def predicate_id(self, name: str) -> int:
        """Return the eid for predicate ``name``, allocating on first sight."""
        eid = self._predicate_ids.get(name)
        if eid is None:
            eid = len(self._predicate_names)
            if eid > MAX_EID:
                raise StoreError("predicate ID space exhausted (17-bit)")
            self._predicate_ids[name] = eid
            self._predicate_names.append(name)
        return eid

    def lookup_entity(self, name: str) -> Optional[int]:
        """The vid for ``name`` if already known, else None (no allocation)."""
        return self._entity_ids.get(name)

    def lookup_predicate(self, name: str) -> Optional[int]:
        """The eid for ``name`` if already known, else None (no allocation)."""
        return self._predicate_ids.get(name)

    # -- reverse lookup -------------------------------------------------
    def entity_name(self, vid: int) -> str:
        """The string for a vid; raises for the index vertex or unknown ids."""
        if vid == INDEX_VID:
            raise StoreError("vid 0 is the reserved index vertex")
        if not 0 < vid < len(self._entity_names):
            raise StoreError(f"unknown entity vid: {vid}")
        name = self._entity_names[vid]
        assert name is not None
        return name

    def entity_names(self, vids: Sequence[int]) -> List[str]:
        """The strings for a whole column of vids, in order.

        The bulk counterpart of :meth:`entity_name`: the same two
        refusals (index vertex, unknown id), decided once per column —
        by its minimum and by the table's own bounds check — instead of
        once per cell.
        """
        if not vids:
            return []
        if min(vids) <= INDEX_VID:  # would index the table from its end
            raise StoreError(f"not an entity vid: {min(vids)}")
        try:
            return list(map(self._entity_names.__getitem__, vids))
        except IndexError:
            raise StoreError(f"unknown entity vid: {max(vids)}") from None

    def predicate_name(self, eid: int) -> str:
        """The string for an eid; raises for unknown ids."""
        if not 0 < eid < len(self._predicate_names):
            raise StoreError(f"unknown predicate eid: {eid}")
        name = self._predicate_names[eid]
        assert name is not None
        return name

    # -- bulk encoding ----------------------------------------------------
    def encode_triples(self, triples: Iterable[Triple]) -> EncodedColumns:
        """Encode triples into ID columns with a zero ``ts`` column.

        >>> server = StringServer()
        >>> cols = server.encode_triples([Triple("Logan", "po", "T-15")])
        >>> cols.s, cols.p, cols.o, cols.ts
        ([1], [1], [2], [0])
        """
        rows = list(triples)
        # Cut by itemgetter, not ``zip(*rows)``: that holds one tracked
        # iterator per row at once, and a bulk load's 32 k of them
        # survive young collections and bring on a full one.
        subjects, predicates, objects = (list(map(cut, rows)) for cut in _CUTS)
        return self._encode(subjects, predicates, objects, [0] * len(rows))

    def encode_columns(self, tuples: TimedColumns) -> EncodedColumns:
        """Encode a batch of timed tuples into ID columns; its ``ts``
        column is shared, not copied (neither side mutates it).

        >>> server = StringServer()
        >>> tuples = TimedColumns(["Logan"] * 2, ["po"] * 2, ["T-15"] * 2,
        ...                       [802, 802])
        >>> cols = server.encode_columns(tuples)
        >>> cols.s, cols.p, cols.o, cols.ts
        ([1, 1], [1, 1], [2, 2], [802, 802])
        """
        return self._encode(tuples.s, tuples.p, tuples.o, tuples.ts)

    def _encode(self, subjects: List[str], predicates: List[str],
                objects: List[str], stamps: List[int]) -> EncodedColumns:
        """The name columns as id columns, allocating ids as needed.

        The subject, predicate and object columns are mapped through the
        id dicts whole; then only the rows holding an unseen name are
        revisited, in row order, allocating subject before predicate
        before object — the order a per-triple loop allocates in, so
        every id comes out the same.  (A name first seen in one row and
        repeated in a later one finds its new id there.)
        """
        entity_get = self._entity_ids.get
        s = list(map(entity_get, subjects))
        p = list(map(self._predicate_ids.get, predicates))
        o = list(map(entity_get, objects))
        unseen = _none_rows(s) | _none_rows(p) | _none_rows(o)
        for i in sorted(unseen):
            if s[i] is None:
                s[i] = self.entity_id(subjects[i])
            if p[i] is None:
                p[i] = self.predicate_id(predicates[i])
            if o[i] is None:
                o[i] = self.entity_id(objects[i])
        return EncodedColumns(s, p, o, stamps)

    # -- durability ----------------------------------------------------------
    def name_tables(self) -> Tuple[List[Optional[str]], List[Optional[str]]]:
        """Copies of the entity and predicate name tables: an id is its
        position (slot 0 of each is reserved and holds None)."""
        return list(self._entity_names), list(self._predicate_names)

    def load_name_tables(self, entities: List[Optional[str]],
                         predicates: List[Optional[str]]) -> None:
        """Allocate :meth:`name_tables` output; each name must get its id."""
        for name in entities[1:]:
            self.entity_id(name)
        for name in predicates[1:]:
            self.predicate_id(name)
        if self.name_tables() != (entities, predicates):
            raise StoreError("name tables do not match their ids")

    # -- stats -------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self._entity_names) - 1

    @property
    def num_predicates(self) -> int:
        return len(self._predicate_names) - 1
