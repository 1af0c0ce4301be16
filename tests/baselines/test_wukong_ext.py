"""Tests for the Wukong/Ext baseline."""

import pytest

from repro.baselines.wukong_ext import WukongExtEngine
from repro.sim.cluster import Cluster
from repro.sparql.parser import parse_query

from baselines.helpers import (EXPECTED_QC_AT_10S, feed, qc_query,
                               stream_batches, stream_only_query, to_names)


def build(num_nodes=1):
    return feed(WukongExtEngine(Cluster(num_nodes=num_nodes)))


class TestCorrectness:
    def test_qc_matches_expected(self):
        engine = build()
        result, _ = engine.execute_continuous(qc_query(), 10_000)
        assert to_names(engine.strings, result.rows) == EXPECTED_QC_AT_10S

    def test_window_filtering_by_inline_timestamps(self):
        engine = build()
        # At 20s the like-window [15s, 20s) is empty: no results.
        result, _ = engine.execute_continuous(qc_query(), 20_000)
        assert result.rows == []

    def test_oneshot_sees_absorbed_data(self):
        engine = build()
        result, _ = engine.execute_oneshot(parse_query(
            "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"))
        # Unlike the composite design, Wukong/Ext absorbs stream data.
        assert to_names(engine.strings, result.rows) == [("T-13",), ("T-15",)]


class TestInefficiencies:
    def test_charges_timestamp_filtering(self):
        engine = build()
        _, meter = engine.execute_continuous(qc_query(), 10_000)
        assert meter.breakdown_ms.get("ts-filter", 0) > 0

    def test_memory_grows_with_absorbed_data_and_never_shrinks(self):
        engine = WukongExtEngine(Cluster(1))
        from baselines.helpers import static_triples
        engine.load_static(static_triples())
        base = engine.memory_bytes()
        sizes = [base]
        for batch in stream_batches():
            engine.ingest(batch)
            sizes.append(engine.memory_bytes())
        assert sizes == sorted(sizes)  # monotone: no GC ever
        assert sizes[-1] > base
        assert engine.timestamp_bytes() > 0

    def test_window_extraction_slows_as_data_accumulates(self):
        from repro.streams.stream import StreamBatch
        from streams.helpers import timed

        engine = build()
        _, early = engine.execute_continuous(qc_query(), 10_000)

        # Absorb a long history of Erik's likes, then replay an equivalent
        # scenario inside a fresh window.  Without a stream index, the
        # window scan must now filter through the whole accumulated value
        # list, so the same-shaped execution costs strictly more.
        history = timed(("Erik", "li", "T-15", 20_000 + i)
                        for i in range(200))
        engine.ingest(StreamBatch("Like_Stream", 999, 20_000, 21_000,
                                  history))
        engine.ingest(StreamBatch(
            "Tweet_Stream", 999, 20_000, 31_000,
            timed([("Logan", "po", "T-18", 30_000)])))
        engine.ingest(StreamBatch(
            "Like_Stream", 1000, 21_000, 31_000,
            timed([("Erik", "li", "T-18", 30_500)])))
        result, late = engine.execute_continuous(qc_query(), 32_000)
        assert to_names(engine.strings, result.rows) == \
            [("Logan", "Erik", "T-18")]
        assert late.ms > early.ms


#: Per-close simulated cost (picoseconds) of QC and of the stream-only
#: query at closes 2s, 4s, ..., 12s, on one node (in place) and on two
#: (fork-join: per-node index portions, bound steps fetched per start).
PINNED_PS = {
    (1, "qc"): [61422000, 61472000, 61422000, 61472000, 61572000, 61372000],
    (1, "qt"): [60672000, 60722000, 60772000, 60772000, 60822000, 60672000],
    (2, "qc"): [98534520, 98559520, 96682600, 98533560, 98609520, 98483560],
    (2, "qt"): [97785480, 97811440, 97837400, 97837400, 97863360, 97785480],
}

#: QC's rows per close, in result order (identical on one and two nodes).
PINNED_QC_ROWS = [
    [("Logan", "Erik", "T-14"), ("Erik", "Logan", "T-12")],
    [("Logan", "Erik", "T-14"), ("Erik", "Logan", "T-12")],
    [],
    [("Logan", "Erik", "T-15")],
    [("Logan", "Erik", "T-15"), ("Logan", "Erik", "T-17")],
    [("Logan", "Erik", "T-17")],
]


class TestPinnedCharges:
    @pytest.mark.parametrize("num_nodes", [1, 2])
    @pytest.mark.parametrize("name", ["qc", "qt"])
    def test_per_close_charges_and_rows(self, num_nodes, name):
        engine = build(num_nodes)
        query = qc_query() if name == "qc" else stream_only_query()
        charges, rows = [], []
        for close_ms in range(2000, 13000, 2000):
            result, meter = engine.execute_continuous(query, close_ms)
            charges.append(meter.ps)
            rows.append([tuple(map(engine.strings.entity_name, row))
                         for row in result.rows])
        assert charges == PINNED_PS[num_nodes, name]
        if name == "qc":
            assert rows == PINNED_QC_ROWS
