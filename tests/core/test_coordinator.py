"""Tests for the coordinator: stable VTS, SN advancement, compaction."""

import pytest

from repro.core.coordinator import Coordinator
from repro.errors import ConsistencyError
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.store.distributed import DistributedStore


def make(num_nodes=2, streams=("S0", "S1"), plan_width=4, **kwargs):
    return Coordinator(num_nodes, list(streams), plan_width=plan_width,
                       **kwargs)


def insert_batch(coord, stream, batch_no, nodes):
    for node_id in nodes:
        coord.on_batch_inserted(node_id, stream, batch_no)


def test_plan_announced_ahead():
    coord = make()
    assert coord.plan.latest_sn == 1
    assert coord.sn_for_batch("S0", 1) is not None


def test_stable_vts_tracks_slowest_node():
    coord = make()
    coord.on_batch_inserted(0, "S0", 1)
    assert coord.stable_vts().get("S0") == 0
    coord.on_batch_inserted(1, "S0", 1)
    assert coord.stable_vts().get("S0") == 1


def test_is_ready():
    coord = make()
    insert_batch(coord, "S0", 1, [0, 1])
    assert coord.is_ready({"S0": 1})
    assert not coord.is_ready({"S0": 2})
    assert not coord.is_ready({"S1": 1})


def test_sn_advances_when_all_nodes_reach_mapping():
    coord = make(plan_width=1)
    assert coord.stable_sn == 0
    insert_batch(coord, "S0", 1, [0, 1])
    insert_batch(coord, "S1", 1, [0, 1])
    assert coord.advance() == 1
    # A new mapping was published so injection can continue.
    assert coord.plan.latest_sn == 2
    assert coord.sn_for_batch("S0", 2) == 2


def test_sn_stalls_on_lagging_node():
    coord = make(plan_width=1)
    insert_batch(coord, "S0", 1, [0, 1])
    coord.on_batch_inserted(0, "S1", 1)  # node 1 lags on S1
    assert coord.advance() == 0


def test_sn_stalls_on_lagging_stream():
    coord = make(plan_width=1)
    insert_batch(coord, "S0", 1, [0, 1])  # S1 has no data yet
    assert coord.advance() == 0


def test_batch_beyond_plan_stalls():
    coord = make(plan_width=1)
    assert coord.sn_for_batch("S0", 2) is None


def test_wider_plans_admit_more_batches():
    coord = make(plan_width=4)
    assert coord.sn_for_batch("S0", 4) == 1
    assert coord.sn_for_batch("S0", 5) is None


def test_compaction_follows_stable_sn():
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    store.load(parse_triples("a p b ."))
    coord = make(num_nodes=1, streams=("S",), plan_width=1)

    enc = strings.encode_triple(parse_triples("a p c .")[0])
    for batch in range(1, 5):
        sn = coord.sn_for_batch("S", batch)
        assert sn is not None
        store.insert_triples(map(strings.encode_triple,
                                 parse_triples(f"a p x{batch} .")), sn=sn)
        coord.on_batch_inserted(0, "S", batch)
        coord.advance(store)
    # stable_sn is 4; snapshots <= 3 should be compacted into the base.
    assert coord.stable_sn == 4
    assert coord.compacted_through == 3


def test_scalarization_disabled_never_compacts():
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    coord = make(num_nodes=1, streams=("S",), plan_width=1,
                 scalarization=False)
    for batch in range(1, 4):
        coord.on_batch_inserted(0, "S", batch)
        coord.advance(store)
    assert coord.compacted_through == 0


def test_dynamic_stream_addition():
    coord = make(plan_width=1)
    coord.add_stream("S2")
    assert "S2" in coord.streams
    # Existing mapping covers batch 0 of S2; the next mapping includes it.
    insert_batch(coord, "S0", 1, [0, 1])
    insert_batch(coord, "S1", 1, [0, 1])
    coord.advance()
    assert coord.sn_for_batch("S2", 1) == 2


def test_invalid_configs_rejected():
    with pytest.raises(ConsistencyError):
        make(plan_width=0)
