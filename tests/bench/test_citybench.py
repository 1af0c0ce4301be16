"""Tests for the CityBench generator and query catalogue."""

import pytest

import repro.bench.citybench as citybench
from repro.bench.citybench import (ALL_QUERIES, CityBench, CityBenchConfig,
                                   PAPER_RATES, QUERY_STREAMS, STREAM_ONLY)
from repro.sim.rng import stable_rng
from repro.sparql.parser import parse_query
from streams.helpers import content_digest, tracked_objects


@pytest.fixture(scope="module")
def bench():
    return CityBench(CityBenchConfig.tiny())


class TestStaticData:
    def test_deterministic(self, bench):
        assert bench.static_triples() == \
            CityBench(CityBenchConfig.tiny()).static_triples()

    def test_roads_form_a_chain(self, bench):
        connects = [(t.subject, t.object) for t in bench.static_triples()
                    if t.predicate == "connects"]
        assert len(connects) == bench.config.num_roads - 1

    def test_every_sensor_sits_on_a_road(self, bench):
        triples = bench.static_triples()
        sensors = {t.subject for t in triples
                   if t.predicate == "ty" and t.object == "TrafficSensor"}
        placed = {t.subject for t in triples if t.predicate == "onRoad"}
        assert sensors <= placed

    def test_lots_near_roads(self, bench):
        triples = bench.static_triples()
        lots = {t.subject for t in triples
                if t.predicate == "ty" and t.object == "ParkingLot"}
        near = {t.subject for t in triples if t.predicate == "nearRoad"}
        assert lots == near


class TestStreams:
    def test_deterministic(self, bench):
        assert bench.generate_streams(5_000) == bench.generate_streams(5_000)

    def test_all_eleven_streams(self, bench):
        streams = bench.generate_streams(5_000)
        assert set(streams) == set(PAPER_RATES)
        assert len(PAPER_RATES) == 11

    def test_rates_roughly_match_paper(self, bench):
        streams = bench.generate_streams(10_000)
        for name, rate in PAPER_RATES.items():
            expected = rate * 10
            assert len(streams[name]) == pytest.approx(expected, rel=0.25), \
                name

    def test_timestamps_ordered(self, bench):
        for tuples in bench.generate_streams(5_000).values():
            assert tuples.ts == sorted(tuples.ts)

    def test_content_pinned(self, monkeypatch):
        """The default city's streams, row for row, under the
        process-stable rng."""
        monkeypatch.setattr(citybench, "make_rng", stable_rng)
        streams = CityBench(CityBenchConfig()).generate_streams(20_000)
        assert content_digest(streams) == (
            "9e5bc8b4ebc8f543f5300c57fddd64f0a2ab3c0940fbb45c09a3a4c220c33c0f",
            1_691)

    def test_no_tracked_object_per_tuple(self, bench):
        before = tracked_objects()
        streams = bench.generate_streams(600_000)
        tuples = sum(map(len, streams.values()))
        assert tuples > 40_000
        assert tracked_objects() - before < tuples // 100


class TestQueries:
    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_queries_parse_with_declared_streams(self, bench, name):
        query = parse_query(bench.continuous_query(name))
        assert query.is_continuous
        assert set(query.windows) == set(QUERY_STREAMS[name])

    @pytest.mark.parametrize("name", STREAM_ONLY)
    def test_stream_only_queries_have_no_stored_patterns(self, bench, name):
        query = parse_query(bench.continuous_query(name))
        assert query.stored_patterns() == []

    @pytest.mark.parametrize("name",
                             [q for q in ALL_QUERIES
                              if q not in STREAM_ONLY])
    def test_stateful_queries_touch_the_city_graph(self, bench, name):
        query = parse_query(bench.continuous_query(name))
        assert query.stored_patterns()

    def test_default_windows_match_paper(self, bench):
        query = parse_query(bench.continuous_query("C1"))
        for window in query.windows.values():
            assert window.range_ms == 3_000
            assert window.step_ms == 1_000

    def test_variant_rotates_constants(self, bench):
        assert bench.continuous_query("C1", 0) != \
            bench.continuous_query("C1", 1)

    def test_unknown_query_rejected(self, bench):
        with pytest.raises(KeyError):
            bench.continuous_query("C12")


class TestEndToEnd:
    def test_every_query_runs_and_produces_rows_eventually(self, bench):
        from repro.bench.harness import build_wukongs, measure_wukongs

        engine = build_wukongs(bench, num_nodes=1, duration_ms=10_000,
                               batch_interval_ms=1_000)
        queries = {name: bench.continuous_query(name)
                   for name in ALL_QUERIES}
        samples = measure_wukongs(engine, queries, 10_000)
        for name in ALL_QUERIES:
            assert samples[name], f"{name} never executed"
        # At least the dense queries should find matches.
        handle = engine.continuous.queries["C9"]
        assert any(len(rec.result.rows) > 0 for rec in handle.executions)
        handle = engine.continuous.queries["C10"]
        assert any(len(rec.result.rows) > 0 for rec in handle.executions)
