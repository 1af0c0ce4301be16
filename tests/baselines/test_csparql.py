"""Tests for the CSPARQL-engine (Esper + Jena) baseline."""

import pytest

from repro.baselines.csparql_engine import CSparqlEngine
from repro.errors import UnsupportedOperationError
from repro.sparql.parser import parse_query

from baselines.helpers import (EXPECTED_QC_AT_10S, PINNED, feed,
                               pinned_closes, qc_query, stream_only_query,
                               to_names)


def build():
    return feed(CSparqlEngine())


class TestCorrectness:
    def test_qc_matches_expected(self):
        engine = build()
        rows, _ = engine.execute_continuous(qc_query(), 10_000)
        assert to_names(engine.strings, rows) == EXPECTED_QC_AT_10S

    def test_stream_only_query(self):
        engine = build()
        rows, _ = engine.execute_continuous(stream_only_query(), 10_000)
        names = to_names(engine.strings, rows)
        assert ("Logan", "T-15") in names
        assert ("Logan", "T-17") in names

    def test_oneshot_on_static_store(self):
        engine = build()
        rows, _ = engine.execute_oneshot(parse_query(
            "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"))
        assert to_names(engine.strings, rows) == [("T-13",)]

    def test_oneshot_rejects_windows(self):
        engine = build()
        with pytest.raises(UnsupportedOperationError):
            engine.execute_oneshot(qc_query())


class TestCosts:
    def test_every_execution_pays_base_overhead(self):
        engine = build()
        _, meter = engine.execute_continuous(stream_only_query(), 10_000)
        assert meter.ns >= engine.cost.csparql_base_ns

    def test_orders_of_magnitude_slower_than_composite(self):
        from repro.baselines.composite import CompositeEngine
        from repro.sim.cluster import Cluster

        csparql = build()
        composite = feed(CompositeEngine(Cluster(1)))
        _, slow = csparql.execute_continuous(qc_query(), 10_000)
        _, fast, _ = composite.execute_continuous(qc_query(), 10_000)
        assert slow.ms > fast.ms

    def test_jena_charges_probes(self):
        engine = build()
        _, meter = engine.execute_continuous(qc_query(), 10_000)
        assert meter.breakdown_ms.get("jena", 0) > 0
        assert meter.breakdown_ms.get("esper", 0) > 0


@pytest.mark.parametrize("name", ["qc", "qt", "qu", "qo"])
def test_pinned_closes(name):
    assert pinned_closes(build(), name) == PINNED[f"csparql/{name}"]
