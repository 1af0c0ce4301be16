"""Tests for the LSBench generator and query catalogue."""

import pytest

import repro.bench.lsbench as lsbench
from repro.bench.lsbench import (GROUP_I, GROUP_II, LSBench, LSBenchConfig,
                                 PAPER_RATES, QUERY_STREAMS)
from repro.sim.rng import stable_rng
from repro.sparql.parser import parse_query
from repro.streams.source import StreamSource
from streams.helpers import content_digest, tracked_objects


@pytest.fixture(scope="module")
def bench():
    return LSBench(LSBenchConfig.tiny())


class TestStaticData:
    def test_deterministic(self, bench):
        again = LSBench(LSBenchConfig.tiny())
        assert bench.static_triples() == again.static_triples()

    def test_every_user_has_type_follows_and_posts(self, bench):
        triples = bench.static_triples()
        by_pred = {}
        for t in triples:
            by_pred.setdefault(t.predicate, []).append(t)
        users = {t.subject for t in by_pred["ty"] if t.object == "Person"}
        assert len(users) == bench.config.num_users
        followers = {t.subject for t in by_pred["fo"]}
        assert followers == users
        posters = {t.subject for t in by_pred["po"]}
        assert posters == users

    def test_nobody_follows_themselves(self, bench):
        for t in bench.static_triples():
            if t.predicate == "fo":
                assert t.subject != t.object

    def test_scale_configs_ordered(self):
        tiny = len(LSBench(LSBenchConfig.tiny()).static_triples())
        small = len(LSBench(LSBenchConfig.small()).static_triples())
        assert tiny < small


class TestStreams:
    def test_deterministic(self, bench):
        a = bench.generate_streams(2_000)
        b = bench.generate_streams(2_000)
        assert a == b

    def test_all_five_streams_present(self, bench):
        streams = bench.generate_streams(2_000)
        assert set(streams) == set(PAPER_RATES)

    def test_rates_scale(self, bench):
        slow = bench.generate_streams(2_000, rate_scale=0.01)
        fast = bench.generate_streams(2_000, rate_scale=0.04)
        for name in PAPER_RATES:
            assert len(fast[name]) > len(slow[name])

    def test_relative_rates_match_paper(self, bench):
        streams = bench.generate_streams(4_000)
        # PO-L is the heaviest stream, as in Table 1.
        assert len(streams["PO_L"]) == max(len(v) for v in streams.values())
        ratio = len(streams["PO_L"]) / len(streams["PO"])
        assert ratio == pytest.approx(8.6, rel=0.15)

    def test_timestamps_ordered_per_stream(self, bench):
        for tuples in bench.generate_streams(3_000).values():
            assert tuples.ts == sorted(tuples.ts)

    def test_gps_is_timing_only(self, bench):
        schema = {s.name: s for s in bench.schemas()}["GPS"]
        for predicate in bench.generate_streams(2_000)["GPS"].p:
            assert schema.is_timing(predicate)

    def test_likes_reference_existing_posts(self, bench):
        streams = bench.generate_streams(3_000)
        posts = {o for (_, p, o), _ in streams["PO"] if p == "po"}
        initial = {f"Post_{i}_{k}"
                   for i in range(bench.config.num_users)
                   for k in range(bench.config.initial_posts_per_user)}
        for (_, _, post), _ in streams["PO_L"]:
            assert post in posts | initial

    def test_rate_overrides(self, bench):
        streams = bench.generate_streams(
            2_000, rates={"PO": 0.0, "PO_L": 0.0, "PH": 0.0, "PH_L": 0.0,
                          "GPS": 1_000.0})
        assert len(streams["PO"]) == 0
        assert len(streams["GPS"]) > 0

    def test_content_pinned(self, monkeypatch):
        """Seed 42's streams, row for row, under the process-stable rng
        (the draws of ``make_rng`` move with the string hash seed)."""
        monkeypatch.setattr(lsbench, "make_rng", stable_rng)
        streams = LSBench(LSBenchConfig(seed=42)).generate_streams(20_000)
        assert content_digest(streams) == (
            "5f47d5a8ad5bfcacf97c049f246499b28cbd026d772c83c4795c28ecb21d73ce",
            106_797)

    def test_no_tracked_object_per_tuple(self, bench):
        """A generated stream is four columns of untracked strings and
        ints, and queueing and delivering it slices them batch by batch:
        neither step leaves a collector-tracked object per tuple.  (What
        is left is per batch, or the Zipf weight tables the generator
        caches once per pool size.)"""
        before = tracked_objects()
        streams = bench.generate_streams(20_000)
        generated = tracked_objects()
        tuples = sum(map(len, streams.values()))
        assert tuples > 80_000
        assert generated - before < tuples // 100
        schemas = {schema.name: schema for schema in bench.schemas()}
        batches = 0
        for name, columns in streams.items():
            source = StreamSource(schemas[name])
            batches += source.queue_tuples(columns, 0, 1_000)
            list(source.drain())  # kept in the source's backup
        assert tracked_objects() - generated < 10 * batches
        assert 10 * batches < tuples // 100


class TestQueries:
    @pytest.mark.parametrize("name", list(QUERY_STREAMS))
    def test_continuous_queries_parse(self, bench, name):
        query = parse_query(bench.continuous_query(name))
        assert query.is_continuous
        assert set(query.windows) == set(QUERY_STREAMS[name])

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "S6"])
    def test_oneshot_queries_parse(self, bench, name):
        query = parse_query(bench.oneshot_query(name))
        assert not query.is_continuous

    def test_group_partition(self):
        assert set(GROUP_I) | set(GROUP_II) == set(QUERY_STREAMS)
        assert not set(GROUP_I) & set(GROUP_II)

    def test_group_i_starts_from_constant(self, bench):
        from repro.sparql.planner import INDEX_START, plan_query
        for name in GROUP_I:
            plan = plan_query(parse_query(bench.continuous_query(name)))
            assert plan.steps[0].kind != INDEX_START, name

    def test_group_ii_starts_from_index(self, bench):
        from repro.sparql.planner import INDEX_START, plan_query
        for name in GROUP_II:
            plan = plan_query(parse_query(bench.continuous_query(name)))
            assert plan.steps[0].kind == INDEX_START, name

    def test_start_user_varies_query(self, bench):
        assert bench.continuous_query("L1", 0) != \
            bench.continuous_query("L1", 5)

    def test_window_overrides(self, bench):
        query = parse_query(bench.continuous_query(
            "L1", range_ms=5_000, step_ms=500))
        assert query.windows["PO"].range_ms == 5_000
        assert query.windows["PO"].step_ms == 500

    def test_unknown_names_rejected(self, bench):
        with pytest.raises(KeyError):
            bench.continuous_query("L9")
        with pytest.raises(KeyError):
            bench.oneshot_query("S9")
