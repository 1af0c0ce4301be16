"""Tests for the distributed store and placement-aware reads."""

from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore, PersistentAccess


def build(num_nodes=2):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    return cluster, strings, store


def test_load_counts_triples():
    _, _, store = build()
    n = store.load(parse_triples("a p b .\nb p c ."))
    assert n == 2
    assert store.num_entries == 4  # out + in halves


def test_edges_land_on_owner_shards():
    cluster, strings, store = build(num_nodes=2)
    store.load(parse_triples("a p b ."))
    a, b = strings.entity_id("a"), strings.entity_id("b")
    assert store.shards[cluster.owner_of(a)].num_entries >= 1
    assert store.shards[cluster.owner_of(b)].num_entries >= 1


def test_neighbors_both_directions():
    cluster, strings, store = build()
    store.load(parse_triples("a p b .\na p c ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    p = strings.predicate_id("p")
    meter = LatencyMeter()
    home = cluster.owner_of(a)
    assert store.neighbors_many(home, [a], p, DIR_OUT, meter) == \
        {a: [strings.entity_id("b"), strings.entity_id("c")]}
    assert store.neighbors_many(cluster.owner_of(b), [b], p, DIR_IN,
                                LatencyMeter()) == {b: [a]}


def test_remote_read_charges_two_rdma_reads():
    cluster, strings, store = build(num_nodes=2)
    store.load(parse_triples("a p b ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    owner = cluster.owner_of(a)
    remote_home = (owner + 1) % 2

    local, remote = LatencyMeter(), LatencyMeter()
    store.neighbors_many(owner, [a], p, DIR_OUT, local)
    before = cluster.fabric.stats.rdma_reads
    store.neighbors_many(remote_home, [a], p, DIR_OUT, remote)
    assert cluster.fabric.stats.rdma_reads == before + 2
    assert remote.ns > local.ns


def test_index_split_across_nodes():
    cluster, strings, store = build(num_nodes=2)
    store.load(parse_triples("a p b .\nc p d .\ne p f ."))
    p = strings.predicate_id("p")
    total = []
    for node_id in range(2):
        total.extend(store.local_index(node_id, p, DIR_OUT, LatencyMeter()))
    subjects = {strings.entity_id(s) for s in "ace"}
    assert set(total) == subjects


def test_gather_index_sees_everything():
    cluster, strings, store = build(num_nodes=3)
    store.load(parse_triples("a p b .\nc p d .\ne p f ."))
    p = strings.predicate_id("p")
    gathered = store.gather_index(0, p, DIR_OUT, LatencyMeter())
    assert set(gathered) == {strings.entity_id(s) for s in "ace"}


def test_persistent_access_snapshot_bound():
    cluster, strings, store = build(num_nodes=1)
    store.load(parse_triples("a p b ."))
    enc = strings.encode_triple(parse_triples("a p c .")[0])
    store.insert_triples([enc], sn=3)
    a = strings.entity_id("a")
    p = strings.predicate_id("p")

    old = PersistentAccess(store, max_sn=0)
    new = PersistentAccess(store, max_sn=3)
    assert old.neighbors(a, p, DIR_OUT, LatencyMeter()) == \
        [strings.entity_id("b")]
    assert new.neighbors(a, p, DIR_OUT, LatencyMeter()) == \
        [strings.entity_id("b"), strings.entity_id("c")]


def test_resolvers_do_not_allocate():
    _, strings, store = build()
    access = PersistentAccess(store)
    assert access.resolve_entity("nobody") is None
    assert access.resolve_predicate("nothing") is None
    assert strings.num_entities == 0
