"""Tests for the client library, stored procedures and proxies."""

import pytest

from repro.client.library import (_REQUEST_BYTES, _ROW_BYTES,
                                  ClientLibrary, SharedDecodes)
from repro.client.procedures import ProcedureCache
from repro.client.proxy import ProxyPool
from repro.core.pipeline import CACHE_CAPACITY
from repro.errors import PlanError, RegistrationError
from repro.sim.cost import LatencyMeter

from core.test_engine import QC, build_engine


@pytest.fixture
def engine():
    eng = build_engine()
    eng.run_until(4_000)
    return eng


class TestProcedureCache:
    def test_parse_once(self):
        cache = ProcedureCache()
        first = cache.get("SELECT ?x WHERE { Logan po ?x }")
        second = cache.get("SELECT ?x WHERE { Logan po ?x }")
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1

    def test_constants_collected(self):
        cache = ProcedureCache()
        procedure = cache.get(
            "SELECT ?x WHERE { Logan po ?x . ?x ht sosp17 }")
        assert procedure.constants() == ["Logan", "sosp17"]

    def test_continuous_detection(self):
        cache = ProcedureCache()
        assert cache.get(QC).is_continuous

    def test_unplannable_text_refused_at_prepare(self):
        cache = ProcedureCache()
        with pytest.raises(PlanError):
            cache.get("SELECT ?s WHERE { ?s ?p ?o }")
        assert len(cache) == 0

    def test_bounded_lru_keeps_the_hot_catalogue(self):
        """A hot pool interleaved 1:1 with used-once texts (the ``adhoc``
        benchmark workload's shape) stays resident; FIFO would not keep
        it, an unbounded cache would keep everything."""
        cache = ProcedureCache()
        hot = [f"SELECT ?x WHERE {{ User{i} po ?x }}" for i in range(96)]
        for round_ in range(12):
            for i, text in enumerate(hot):
                cache.get(text)
                cache.get(f"SELECT ?x WHERE {{ Cold{round_}x{i} po ?x }}")
        assert cache.hits == 11 * len(hot)  # every reuse after round 0
        assert cache.misses == 13 * len(hot)
        assert len(cache) == CACHE_CAPACITY


class TestClientLibrary:
    def test_submit_decodes_strings(self, engine):
        client = ClientLibrary(engine)
        result = client.submit(
            "SELECT ?x WHERE { Logan po ?x . ?x ht sosp17 }")
        assert result.columns == ["?x"]
        assert sorted(row[0] for row in result.rows) == ["T-13", "T-15"]

    def test_client_latency_includes_round_trip(self, engine):
        client = ClientLibrary(engine, include_network=True)
        result = client.submit("SELECT ?x WHERE { Logan po ?x }")
        assert result.client_latency_ms > result.server_latency_ms

    def test_server_only_latency(self, engine):
        client = ClientLibrary(engine, include_network=False)
        result = client.submit("SELECT ?x WHERE { Logan po ?x }")
        assert result.client_latency_ms == result.server_latency_ms

    def test_client_latency_is_server_plus_message_exactly(self, engine):
        """The server meter folds into the client's as integer
        picoseconds — no float round trip in between."""
        record = engine.oneshot("SELECT ?x WHERE { Logan po ?x }")
        server = LatencyMeter()
        server.add(record.meter)
        server.charge_ps(1)  # an odd picosecond must survive the fold
        client = ClientLibrary(engine, include_network=True)
        delivered = client._deliver(record.result, [], server, 0)
        message = LatencyMeter()
        engine.cluster.fabric.message(
            message, _REQUEST_BYTES + _ROW_BYTES * len(record.result.rows))
        assert delivered.client_latency_ms == \
            (server.ps + message.ps) / 1_000_000_000
        assert delivered.server_latency_ms == server.ms

    def test_string_server_round_trips_batched(self, engine):
        client = ClientLibrary(engine)
        client.submit("SELECT ?x WHERE { Logan po ?x . ?x ht sosp17 }")
        assert client.string_server_roundtrips == 1
        # Same constants again: no new round trip.
        client.submit("SELECT ?x WHERE { Logan po ?x . ?x ht sosp17 }")
        assert client.string_server_roundtrips == 1
        # A new constant costs one more.
        client.submit("SELECT ?x WHERE { Erik po ?x }")
        assert client.string_server_roundtrips == 2

    def test_known_constants_stay_bounded(self, engine):
        """A stream of used-once texts cannot grow the proxy: a constant
        forgotten under the flood just costs one more round trip."""
        client = ClientLibrary(engine)
        client.prepare("SELECT ?x WHERE { Logan po ?x }")
        for i in range(CACHE_CAPACITY + 20):
            client.prepare(f"SELECT ?x WHERE {{ Ghost{i} po ?x }}")
        assert len(client._known_constants) == CACHE_CAPACITY
        before = client.string_server_roundtrips
        client.prepare("SELECT ?x WHERE { Logan po ?x }")
        assert client.string_server_roundtrips == before + 1

    def test_register_and_poll(self, engine):
        client = ClientLibrary(engine)
        subscription = client.register(QC)
        engine.run_until(8_000)
        results = subscription.poll()
        assert results
        latest = results[-1]
        assert ("Logan", "Erik", "T-15") in latest.rows
        # A second poll returns only new executions.
        assert subscription.poll() == []
        engine.run_until(9_000)
        assert len(subscription.poll()) == 1

    def test_unshared_subscriptions_decode_for_themselves(self, engine):
        client = ClientLibrary(engine)
        subscription = client.register(QC)
        assert subscription.shared is None
        engine.run_until(8_000)
        results = subscription.poll()
        assert client.stats.results_decoded == len(results) > 0
        assert client.stats.rows_decoded == sum(len(r) for r in results)
        assert client.stats.decodes_shared == 0

    def test_submit_rejects_continuous(self, engine):
        client = ClientLibrary(engine)
        with pytest.raises(PlanError):
            client.submit(QC)
        with pytest.raises(RegistrationError):
            client.register("SELECT ?x WHERE { Logan po ?x }")

    def test_subscribe_rejects_oneshot_procedure(self, engine):
        client = ClientLibrary(engine)
        handle = client.register(QC).handle
        oneshot = client.prepare("SELECT ?x WHERE { Logan po ?x }")
        with pytest.raises(RegistrationError):
            client.subscribe(oneshot, handle, SharedDecodes())

    def test_aggregate_values_pass_through(self, engine):
        client = ClientLibrary(engine)
        result = client.submit(
            "SELECT ?u COUNT(?p) AS ?n WHERE { ?u po ?p } GROUP BY ?u")
        counts = dict(result.rows)
        assert counts["Logan"] >= 2
        assert isinstance(counts["Logan"], int)


class TestProxyPool:
    def test_round_robin_balancing(self, engine):
        pool = ProxyPool(engine, num_proxies=2)
        for _ in range(6):
            pool.submit("SELECT ?x WHERE { Logan po ?x }")
        counts = pool.request_counts()
        assert counts == {0: 3, 1: 3}
        assert pool.total_requests == 6

    def test_proxies_front_different_nodes(self, engine):
        pool = ProxyPool(engine)
        affinities = {proxy.affinity_node for proxy in pool.proxies}
        assert affinities == set(range(engine.cluster.num_nodes))

    def test_registration_through_proxy(self, engine):
        pool = ProxyPool(engine, num_proxies=2)
        subscription = pool.register(QC)
        engine.run_until(8_000)
        assert subscription.poll()

    def test_bad_pool_size(self, engine):
        with pytest.raises(ValueError):
            ProxyPool(engine, num_proxies=0)
