"""Tests for RDF text parsing."""

import pytest

from repro.errors import ParseError
from repro.rdf.parser import (format_triples, parse_timed_tuples,
                              parse_triples)
from repro.rdf.terms import Triple


def test_parse_triples_basic():
    triples = parse_triples("Logan fo Erik .\nLogan po T-13")
    assert triples == [Triple("Logan", "fo", "Erik"),
                       Triple("Logan", "po", "T-13")]


def test_comments_and_blank_lines_skipped():
    text = """
    # the X-Lab graph
    Logan fo Erik .

    Erik fo Logan   # mutual
    """
    assert len(parse_triples(text)) == 2


def test_hash_inside_a_term_is_not_a_comment():
    """A ``#`` opens a comment only at the start of a line or after
    whitespace, outside ``<...>`` and quotes."""
    iris = ("<http://ex.org/a#Logan> <http://ex.org/v#po> "
            "<http://ex.org/a#T-15>")
    assert parse_triples(iris + " .") == [Triple(
        "http://ex.org/a#Logan", "http://ex.org/v#po", "http://ex.org/a#T-15")]
    assert list(parse_timed_tuples(iris + " @802  # a comment")) == [(
        ("http://ex.org/a#Logan", "http://ex.org/v#po",
         "http://ex.org/a#T-15"), 802)]
    assert parse_triples('Logan says "issue #4" .  # see #4') == [
        Triple("Logan", "says", "issue #4")]
    assert list(parse_timed_tuples("Logan says 'no #4' @5\nErik#2 po x @6"
                                   "\n# Erik po y @7")) == [
        (("Logan", "says", "no #4"), 5), (("Erik#2", "po", "x"), 6)]
    assert parse_triples(r'Logan says "a \" #4" .') == [
        Triple("Logan", "says", 'a " #4')]
    assert parse_triples(r"Logan says a\ #4 .") == [
        Triple("Logan", "says", "a #4")]


def test_iri_brackets_stripped():
    triples = parse_triples("<http://x/Logan> <fo> <http://x/Erik> .")
    assert triples[0].subject == "http://x/Logan"
    assert triples[0].predicate == "fo"


def test_quoted_literals_keep_spaces():
    triples = parse_triples('T-15 body "hello sosp world" .')
    assert triples[0].object == "hello sosp world"


def test_wrong_arity_rejected():
    with pytest.raises(ParseError):
        parse_triples("only two")
    with pytest.raises(ParseError):
        parse_triples("one two three four five")


def test_parse_timed_tuples():
    tuples = parse_timed_tuples("Logan po T-15 @802\nErik li T-15 @806")
    assert list(tuples) == [(("Logan", "po", "T-15"), 802),
                            (("Erik", "li", "T-15"), 806)]
    assert (tuples.s, tuples.p, tuples.o, tuples.ts) == (
        ["Logan", "Erik"], ["po", "li"], ["T-15", "T-15"], [802, 806])


def test_timed_tuple_requires_at_sign():
    with pytest.raises(ParseError):
        parse_timed_tuples("Logan po T-15 802")


def test_timed_tuple_bad_timestamp():
    with pytest.raises(ParseError):
        parse_timed_tuples("Logan po T-15 @soon")


def test_parse_error_reports_line():
    try:
        parse_triples("good p1 x .\nbad line")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected ParseError")


def test_format_roundtrip():
    triples = [Triple("a", "p", "b"), Triple("c", "q", "d")]
    assert parse_triples(format_triples(triples)) == triples
