"""Tests for the relational operator substrate."""

from hypothesis import given, strategies as st

from repro.baselines.composite import CompositeEngine
from repro.baselines.csparql_engine import CSparqlEngine
from repro.baselines.relational import (WindowBuffer, hash_join, project,
                                        scan_pattern)
from repro.baselines.spark import SparkStreamingEngine
from repro.baselines.structured import StructuredStreamingEngine
from repro.errors import StreamError
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter
from repro.sparql.ast import TriplePattern
from repro.streams.stream import StreamBatch
from streams.helpers import timed

import pytest


def encode_all(strings, rows):
    return strings.encode_columns(timed(rows))


class TestWindowBuffer:
    def test_window_selects_time_range(self):
        strings = StringServer()
        buffer = WindowBuffer("S")
        buffer.extend(encode_all(strings, [
            ("a", "p", "b", 100), ("c", "p", "d", 250), ("e", "p", "f", 400),
        ]))
        assert len(buffer.window(200, 400)) == 1
        assert len(buffer.window(0, 500)) == 3

    def test_out_of_order_rejected(self):
        strings = StringServer()
        buffer = WindowBuffer("S")
        buffer.extend(encode_all(strings, [("a", "p", "b", 100)]))
        with pytest.raises(StreamError):
            buffer.extend(encode_all(strings, [("c", "p", "d", 50)]))

    @given(stamps=st.lists(st.integers(0, 40), max_size=30),
           cut=st.integers(0, 30), start=st.integers(-5, 45),
           end=st.integers(-5, 45))
    def test_window_bisects_like_the_linear_filter(self, stamps, cut, start,
                                                   end):
        """Over non-decreasing timestamps with duplicates, appended in two
        batches, the bisected window is the old comprehension's rows."""
        stamps.sort()
        columns = EncodedColumns(list(range(len(stamps))),
                                 [7] * len(stamps),
                                 [100 + i for i in range(len(stamps))],
                                 stamps)
        buffer = WindowBuffer("S")
        buffer.extend(columns.take(range(min(cut, len(stamps)))))
        buffer.extend(columns.take(range(min(cut, len(stamps)),
                                         len(stamps))))
        expected = columns.take([i for i, ts in enumerate(stamps)
                                 if start <= ts < end])
        assert buffer.window(start, end) == expected


@pytest.mark.parametrize("build", [
    lambda: CompositeEngine(Cluster(1)), CSparqlEngine,
    SparkStreamingEngine, StructuredStreamingEngine],
    ids=["composite", "csparql", "spark", "structured"])
def test_refused_batch_leaves_buffer_untouched(build):
    """A batch whose timestamps fall is refused whole, with a typed error,
    before any of its rows reaches the engine's buffer."""
    engine = build()
    engine.ingest(StreamBatch("S", 1, 0, 100, timed([("a", "p", "b", 50)])))
    before = engine.buffers["S"].window(0, 1000)
    with pytest.raises(StreamError):
        engine.ingest(StreamBatch("S", 2, 100, 200, timed([
            ("c", "p", "d", 150), ("e", "p", "f", 120)])))
    assert engine.buffers["S"].window(0, 1000) == before
    assert len(engine.buffers["S"]) == 1


class TestScan:
    def setup_method(self):
        self.strings = StringServer()
        self.cost = CostModel()
        self.tuples = encode_all(self.strings, [
            ("Logan", "po", "T-15", 10),
            ("Erik", "po", "T-16", 20),
            ("Erik", "li", "T-15", 30),
        ])

    def scan(self, s, p, o, **kwargs):
        return scan_pattern(self.tuples, TriplePattern(s, p, o),
                            self.strings, LatencyMeter(), 100.0, self.cost,
                            **kwargs)

    def test_predicate_filter(self):
        rows = self.scan("?U", "po", "?T")
        assert len(rows) == 2

    def test_constant_subject(self):
        rows = self.scan("Logan", "po", "?T")
        assert rows == [{"?T": self.strings.entity_id("T-15")}]

    def test_constant_object(self):
        rows = self.scan("?U", "li", "T-15")
        assert rows == [{"?U": self.strings.entity_id("Erik")}]

    def test_unknown_terms_yield_empty(self):
        assert self.scan("?U", "nope", "?T") == []
        assert self.scan("Nobody", "po", "?T") == []

    def test_charges_per_tuple(self):
        meter = LatencyMeter()
        scan_pattern(self.tuples, TriplePattern("?U", "po", "?T"),
                     self.strings, meter, 100, self.cost)
        assert meter.ns >= 300.0  # 3 tuples x 100ns

    def test_modeled_rows_override(self):
        meter = LatencyMeter()
        scan_pattern(self.tuples, TriplePattern("?U", "po", "?T"),
                     self.strings, meter, 100, self.cost,
                     modeled_rows=1000)
        assert meter.ns >= 100_000.0


class TestJoin:
    def setup_method(self):
        self.cost = CostModel()

    def test_joins_on_shared_variable(self):
        left = [{"?X": 1, "?Y": 2}, {"?X": 3, "?Y": 4}]
        right = [{"?Y": 2, "?Z": 9}]
        out = hash_join(left, right, LatencyMeter(), self.cost)
        assert out == [{"?X": 1, "?Y": 2, "?Z": 9}]

    def test_no_shared_variable_is_cross_product(self):
        left = [{"?X": 1}, {"?X": 2}]
        right = [{"?Y": 7}, {"?Y": 8}]
        out = hash_join(left, right, LatencyMeter(), self.cost)
        assert len(out) == 4

    def test_empty_side_empty_result(self):
        assert hash_join([], [{"?Y": 1}], LatencyMeter(), self.cost) == []
        assert hash_join([{"?X": 1}], [], LatencyMeter(), self.cost) == []

    def test_join_charges_build_and_probe(self):
        meter = LatencyMeter()
        hash_join([{"?X": 1}], [{"?X": 1}], meter, self.cost)
        assert meter.ns >= self.cost.join_build_ns + self.cost.join_probe_ns


def test_project_deduplicates():
    rows = [{"?X": 1, "?Y": 2}, {"?X": 1, "?Y": 3}]
    out = project(rows, ["?X"], LatencyMeter(), CostModel())
    assert out == [(1,)]
