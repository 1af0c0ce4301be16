"""Minimal RDF text parsing.

Two line-oriented formats are supported, enough to load static datasets and
stream traces in tests and examples:

* triples — ``subject predicate object .`` (the final dot is optional);
* timed tuples — ``subject predicate object @timestamp`` with an integer
  timestamp in simulated milliseconds, parsed into the four columns of a
  stream (:class:`~repro.rdf.terms.TimedColumns`).

Blank lines and ``#`` comments are skipped.  A comment starts at a ``#``
at the start of a line or after whitespace, outside ``<...>`` and quotes,
so ``<http://ex.org/a#Logan>`` and ``"issue #4"`` are terms.  Terms are
bare words or ``<...>``-delimited IRIs (the delimiters are stripped);
quoted literals keep internal spaces.
"""

from __future__ import annotations

import shlex
from typing import Iterable, List

from repro.errors import ParseError
from repro.rdf.terms import TimedColumns, Triple


def _strip_comment(line: str) -> str:
    """``line`` without its comment, if it has one.

    A ``#`` opens a comment at the start of the line or after
    whitespace; one inside a term (``a#b``), an IRI or a quoted literal
    does not.  A backslash escapes the next character, as in ``shlex``
    (an escaped quote does not close a literal, an escaped space does
    not end a term).
    """
    quote = ""
    iri = escaped = False
    previous = " "
    for i, char in enumerate(line):
        if escaped:
            escaped = False
            char = ""  # part of the term, whatever it is
        elif char == "\\" and quote != "'":
            escaped = True
        elif quote:
            if char == quote:
                quote = ""
        elif iri:
            iri = char != ">"
        elif char in "\"'":
            quote = char
        elif previous.isspace():
            if char == "#":
                return line[:i]
            iri = char == "<"
        previous = char
    return line


def _split_terms(line: str, lineno: int) -> List[str]:
    try:
        parts = shlex.split(line, comments=False)
    except ValueError as exc:
        raise ParseError(f"bad quoting: {exc}", line=lineno) from exc
    return [p[1:-1] if p.startswith("<") and p.endswith(">") else p for p in parts]


def parse_triples(text: str) -> List[Triple]:
    """Parse newline-separated triples.

    >>> parse_triples("Logan fo Erik .\\nLogan po T-13")
    [Triple(subject='Logan', predicate='fo', object='Erik'), \
Triple(subject='Logan', predicate='po', object='T-13')]
    """
    triples: List[Triple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        terms = _split_terms(line, lineno)
        if terms and terms[-1] == ".":
            terms = terms[:-1]
        if len(terms) != 3:
            raise ParseError(
                f"expected 3 terms, got {len(terms)}: {line!r}", line=lineno)
        triples.append(Triple(*terms))
    return triples


def parse_timed_tuples(text: str) -> TimedColumns:
    """Parse newline-separated timed tuples (``s p o @ts``) into columns.

    >>> tuples = parse_timed_tuples("Logan po T-15 @802\\nErik li T-15 @806")
    >>> tuples.s, tuples.ts
    (['Logan', 'Erik'], [802, 806])
    """
    tuples = TimedColumns()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        terms = _split_terms(line, lineno)
        if len(terms) != 4 or not terms[3].startswith("@"):
            raise ParseError(
                f"expected 's p o @ts', got: {line!r}", line=lineno)
        stamp_text = terms[3][1:]
        try:
            stamp = int(stamp_text)
        except ValueError as exc:
            raise ParseError(
                f"bad timestamp {stamp_text!r}", line=lineno) from exc
        tuples.s.append(terms[0])
        tuples.p.append(terms[1])
        tuples.o.append(terms[2])
        tuples.ts.append(stamp)
    return tuples


def format_triples(triples: Iterable[Triple]) -> str:
    """Render triples back to the line format accepted by parse_triples."""
    return "\n".join(f"{t.subject} {t.predicate} {t.object} ." for t in triples)
