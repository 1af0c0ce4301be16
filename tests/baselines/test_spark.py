"""Tests for the Spark-Streaming and Structured-Streaming baselines."""

import pytest

from repro.baselines.spark import SparkStreamingEngine
from repro.baselines.structured import StructuredStreamingEngine
from repro.errors import UnsupportedOperationError
from repro.sparql.parser import parse_query

from baselines.helpers import (EXPECTED_QC_AT_10S, PINNED, feed,
                               pinned_closes, qc_query, stream_only_query,
                               to_names)

_ENGINES = {"spark": SparkStreamingEngine,
            "structured": StructuredStreamingEngine}


@pytest.mark.parametrize("case", ["spark/qc", "spark/qt", "spark/qu",
                                  "spark/qo", "structured/qt",
                                  "structured/qs"])
def test_pinned_closes(case):
    engine, name = case.split("/")
    assert pinned_closes(feed(_ENGINES[engine]()), name) == PINNED[case]


class TestSparkStreaming:
    def test_qc_matches_expected(self):
        engine = feed(SparkStreamingEngine())
        rows, _ = engine.execute_continuous(qc_query(), 10_000)
        assert to_names(engine.strings, rows) == EXPECTED_QC_AT_10S

    def test_charges_full_table_scan_for_stored_pattern(self):
        engine = feed(SparkStreamingEngine())
        _, meter = engine.execute_continuous(qc_query(), 10_000)
        # Stored pattern scan is charged at the whole DataFrame size.
        scan_ms = meter.breakdown_ms["scan"]
        assert scan_ms * 1e6 >= engine.num_stored * engine.cost.spark_row_ns

    def test_charges_per_stage_scheduling(self):
        engine = feed(SparkStreamingEngine())
        _, meter = engine.execute_continuous(qc_query(), 10_000)
        assert meter.breakdown_ms["scheduling"] * 1e6 >= \
            3 * engine.cost.spark_task_ns

    def test_latency_is_hundreds_of_ms_scale(self):
        engine = feed(SparkStreamingEngine())
        _, meter = engine.execute_continuous(qc_query(), 10_000)
        assert meter.ms > 100.0

    def test_oneshot_static(self):
        engine = feed(SparkStreamingEngine())
        rows, _ = engine.execute_oneshot(parse_query(
            "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"))
        assert to_names(engine.strings, rows) == [("T-13",)]


class TestStructuredStreaming:
    def test_single_stream_query_works(self):
        engine = feed(StructuredStreamingEngine())
        rows, _ = engine.execute_continuous(stream_only_query(), 10_000)
        names = to_names(engine.strings, rows)
        assert ("Logan", "T-15") in names

    def test_stream_stream_join_unsupported(self):
        engine = feed(StructuredStreamingEngine())
        with pytest.raises(UnsupportedOperationError):
            engine.execute_continuous(qc_query(), 10_000)

    def test_scans_unbounded_table(self):
        engine = feed(StructuredStreamingEngine())
        assert engine.unbounded_rows > 0
        _, meter = engine.execute_continuous(stream_only_query(), 10_000)
        assert meter.breakdown_ms["scan"] * 1e6 >= \
            engine.unbounded_rows * engine.cost.structured_row_ns

    def test_slower_than_spark_streaming(self):
        structured = feed(StructuredStreamingEngine())
        spark = feed(SparkStreamingEngine())
        _, slow = structured.execute_continuous(stream_only_query(), 10_000)
        _, fast = spark.execute_continuous(stream_only_query(), 10_000)
        assert slow.ms > fast.ms

    def test_unbounded_table_grows_without_eviction(self):
        engine = feed(StructuredStreamingEngine())
        before = engine.unbounded_rows
        from baselines.helpers import stream_batches
        # Re-ingesting more data only ever grows the table.
        for batch in stream_batches():
            if batch.tuples:
                from repro.streams.stream import StreamBatch
                shifted = StreamBatch(
                    batch.stream, batch.batch_no + 100,
                    batch.start_ms + 100_000, batch.end_ms + 100_000,
                    [type(t)(t.triple, t.timestamp_ms + 100_000)
                     for t in batch.tuples])
                engine.ingest(shifted)
        assert engine.unbounded_rows > before
