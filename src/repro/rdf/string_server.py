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

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError
from repro.rdf.ids import INDEX_VID, MAX_EID, MAX_VID
from repro.rdf.terms import EncodedColumns, EncodedTriple, TimedTuple, Triple


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

        The bulk counterpart of :meth:`entity_name`, as
        :meth:`encode_columns` is of :meth:`encode_triple`: the same two
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
    def encode_triple(self, triple: Triple) -> EncodedTriple:
        """Encode one triple, allocating IDs as needed.

        The known-term path (the common case on a warm server) is inlined
        dict probes; only first-sighted terms take the allocating call.
        """
        entity_ids = self._entity_ids
        s = entity_ids.get(triple.subject)
        if s is None:
            s = self.entity_id(triple.subject)
        p = self._predicate_ids.get(triple.predicate)
        if p is None:
            p = self.predicate_id(triple.predicate)
        o = entity_ids.get(triple.object)
        if o is None:
            o = self.entity_id(triple.object)
        return EncodedTriple(s, p, o)

    def encode_columns(self, tuples: Sequence[TimedTuple]) -> EncodedColumns:
        """Encode a batch of timed tuples into ID columns.

        The subject, predicate and object columns are mapped through the
        id dicts whole; then only the rows holding an unseen name are
        revisited, in row order, allocating subject before predicate
        before object — exactly the order :meth:`encode_triple` over the
        batch allocates in, so every id comes out the same.  (A name
        first seen in one row and repeated in a later one finds its new
        id there.)

        >>> server = StringServer()
        >>> tup = TimedTuple(Triple("Logan", "po", "T-15"), 802)
        >>> cols = server.encode_columns([tup, tup])
        >>> cols.s, cols.p, cols.o, cols.ts
        ([1, 1], [1, 1], [2, 2], [802, 802])
        """
        if not tuples:
            return EncodedColumns()
        triples, stamps = zip(*tuples)
        subjects, predicates, objects = zip(*triples)
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
        return EncodedColumns(s, p, o, list(stamps))

    def decode_triple(self, enc: EncodedTriple) -> Triple:
        """Decode an encoded triple back to strings."""
        return Triple(
            self.entity_name(enc.s),
            self.predicate_name(enc.p),
            self.entity_name(enc.o),
        )

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
