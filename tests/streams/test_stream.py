"""Tests for stream schemas, batches and batching."""

import pytest

from repro.errors import StreamError
from repro.rdf.parser import parse_timed_tuples
from repro.rdf.terms import TimedTuple, Triple
from repro.streams.stream import StreamBatch, StreamSchema, batch_tuples


def tup(s, p, o, ts):
    return TimedTuple(Triple(s, p, o), ts)


class TestSchema:
    def test_timing_classification(self):
        schema = StreamSchema("Tweet_Stream", frozenset({"ga"}))
        assert schema.is_timing("ga")
        assert not schema.is_timing("po")

    def test_default_is_all_timeless(self):
        assert not StreamSchema("S").is_timing("anything")


class TestBatch:
    def test_add_checks_interval(self):
        batch = StreamBatch("S", 1, 0, 100)
        batch.add(tup("a", "p", "b", 50))
        with pytest.raises(StreamError):
            batch.add(tup("a", "p", "b", 100))
        with pytest.raises(StreamError):
            batch.add(tup("a", "p", "b", -1))

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
        batches = batch_tuples("S", [tup("a", "p", "b", 500)], 0, 100)
        assert len(batches) == 6
        assert all(len(b) == 0 for b in batches[:5])

    def test_out_of_order_rejected(self):
        tuples = [tup("a", "p", "b", 200), tup("c", "p", "d", 100)]
        with pytest.raises(StreamError):
            batch_tuples("S", tuples, 0, 100)

    def test_tuple_before_start_rejected(self):
        with pytest.raises(StreamError):
            batch_tuples("S", [tup("a", "p", "b", 10)], start_ms=100,
                         interval_ms=100)

    def test_bad_interval_rejected(self):
        with pytest.raises(StreamError):
            batch_tuples("S", [], 0, 0)

    def test_boundary_timestamps(self):
        batches = batch_tuples(
            "S", [tup("a", "p", "b", 100), tup("c", "p", "d", 199)], 0, 100)
        assert len(batches) == 2
        assert len(batches[1]) == 2

    def test_nonzero_start(self):
        batches = batch_tuples("S", [tup("a", "p", "b", 1234)],
                               start_ms=1000, interval_ms=100)
        assert batches[-1].batch_no == 3
        assert batches[-1].start_ms == 1200
