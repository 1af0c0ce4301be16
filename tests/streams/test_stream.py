"""Tests for stream schemas, batches and batching."""

import pytest

from repro.errors import StreamError
from repro.rdf.parser import parse_timed_tuples
from repro.rdf.terms import Triple
from repro.streams.stream import StreamBatch, StreamSchema, batch_tuples
from streams.helpers import timed


def tup(s, p, o, ts):
    return (s, p, o, ts)


class TestSchema:
    def test_timing_classification(self):
        schema = StreamSchema("Tweet_Stream", frozenset({"ga"}))
        assert schema.is_timing("ga")
        assert not schema.is_timing("po")

    def test_default_is_all_timeless(self):
        assert not StreamSchema("S").is_timing("anything")


class TestBatch:
    def test_construction_checks_interval(self):
        inside = [tup("a", "p", "b", 0), tup("a", "p", "b", 99)]
        assert len(StreamBatch("S", 1, 0, 100, timed(inside))) == 2
        with pytest.raises(StreamError, match=r"@100 outside .*\[0, 100\)"):
            StreamBatch("S", 1, 0, 100,
                        timed(inside + [tup("a", "p", "b", 100)]))
        with pytest.raises(StreamError, match="@-1 outside"):
            StreamBatch("S", 1, 0, 100,
                        timed([tup("a", "p", "b", -1)] + inside))

    def test_batch_numbers_one_based(self):
        with pytest.raises(StreamError):
            StreamBatch("S", 0, 0, 100)

    def test_empty_interval_rejected(self):
        with pytest.raises(StreamError):
            StreamBatch("S", 1, 100, 100)


class TestBatching:
    def test_groups_by_interval(self):
        tuples = parse_timed_tuples("""
            a p b @50
            c p d @150
            e p f @199
            g p h @350
        """)
        batches = batch_tuples("S", tuples, start_ms=0, interval_ms=100)
        assert [b.batch_no for b in batches] == [1, 2, 3, 4]
        assert [len(b) for b in batches] == [1, 2, 0, 1]
        assert batches[3].start_ms == 300

    def test_intermediate_empty_batches_created(self):
        batches = batch_tuples("S", timed([tup("a", "p", "b", 500)]), 0, 100)
        assert len(batches) == 6
        assert all(len(b) == 0 for b in batches[:5])

    def test_out_of_order_rejected(self):
        tuples = timed([tup("a", "p", "b", 200), tup("c", "p", "d", 100)])
        with pytest.raises(StreamError):
            batch_tuples("S", tuples, 0, 100)

    def test_tuple_before_start_rejected(self):
        with pytest.raises(StreamError):
            batch_tuples("S", timed([tup("a", "p", "b", 10)]), start_ms=100,
                         interval_ms=100)

    def test_bad_interval_rejected(self):
        with pytest.raises(StreamError):
            batch_tuples("S", timed([]), 0, 0)

    def test_boundary_timestamps(self):
        batches = batch_tuples(
            "S", timed([tup("a", "p", "b", 100), tup("c", "p", "d", 199)]),
            0, 100)
        assert len(batches) == 2
        assert len(batches[1]) == 2

    def test_nonzero_start(self):
        batches = batch_tuples("S", timed([tup("a", "p", "b", 1234)]),
                               start_ms=1000, interval_ms=100)
        assert batches[-1].batch_no == 3
        assert batches[-1].start_ms == 1200


class TestColumns:
    def test_read_contract(self):
        """What readers of a generated stream rely on: its length, its
        rows as ``(triple, ts)`` pairs whose triple is a hashable
        ``(s, p, o)`` 3-tuple (equal to the static data's ``Triple``),
        and slices that read the same way."""
        tuples = timed([tup("a", "p", "b", 5), tup("c", "p", "d", 10),
                        tup("a", "p", "b", 31)])
        assert len(tuples) == 3
        rows = [(("a", "p", "b"), 5), (("c", "p", "d"), 10),
                (("a", "p", "b"), 31)]
        assert list(tuples) == rows
        assert list(tuples) == rows  # every iteration starts afresh
        assert {triple for triple, _ in tuples} == \
            {Triple("a", "p", "b"), Triple("c", "p", "d")}
        for window in (slice(1, 3), slice(0, 0), slice(2, None)):
            assert len(tuples[window]) == len(rows[window])
            assert list(tuples[window]) == rows[window]
        with pytest.raises(TypeError, match="sliced, not indexed"):
            tuples[0]
