"""RDF data model: terms, triples, timed stream columns, IDs and the string
server."""

from repro.rdf.terms import Triple, TimedColumns
from repro.rdf.ids import (
    INDEX_VID,
    DIR_IN,
    DIR_OUT,
    MAX_VID,
    MAX_EID,
    Key,
    make_key,
    split_key,
    index_key,
)
from repro.rdf.string_server import StringServer
from repro.rdf.parser import parse_triples, parse_timed_tuples

__all__ = [
    "Triple",
    "TimedColumns",
    "INDEX_VID",
    "DIR_IN",
    "DIR_OUT",
    "MAX_VID",
    "MAX_EID",
    "Key",
    "make_key",
    "split_key",
    "index_key",
    "StringServer",
    "parse_triples",
    "parse_timed_tuples",
]
