"""Tests for the distributed store and placement-aware reads."""

from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore, PersistentAccess

from store.helpers import load_triples


def build(num_nodes=2):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    return cluster, strings, store


def test_load_counts_triples():
    _, _, store = build()
    n = load_triples(store, parse_triples("a p b .\nb p c ."))
    assert n == 2
    assert store.num_entries == 4  # out + in halves


def test_edges_land_on_owner_shards():
    cluster, strings, store = build(num_nodes=2)
    load_triples(store, parse_triples("a p b ."))
    a, b = strings.entity_id("a"), strings.entity_id("b")
    assert store.shards[cluster.owner_of(a)].num_entries >= 1
    assert store.shards[cluster.owner_of(b)].num_entries >= 1


def test_neighbors_both_directions():
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b .\na p c ."))
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
    load_triples(store, parse_triples("a p b ."))
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
    load_triples(store, parse_triples("a p b .\nc p d .\ne p f ."))
    p = strings.predicate_id("p")
    total = []
    for node_id in range(2):
        total.extend(store.local_index(node_id, p, DIR_OUT, LatencyMeter()))
    subjects = {strings.entity_id(s) for s in "ace"}
    assert set(total) == subjects


def test_gather_index_sees_everything():
    cluster, strings, store = build(num_nodes=3)
    load_triples(store, parse_triples("a p b .\nc p d .\ne p f ."))
    p = strings.predicate_id("p")
    gathered = store.gather_index(0, p, DIR_OUT, LatencyMeter())
    assert set(gathered) == {strings.entity_id(s) for s in "ace"}


def test_index_reads_charge_a_probe_per_shard_and_a_scan():
    """The shard prices no index read: ``local_index`` charges one hash
    probe plus a scan of its portion, ``gather_index`` one probe per
    shard, a scan of every vertex and a remote read per non-empty
    remote portion."""
    cluster, strings, store = build(num_nodes=3)
    load_triples(store, parse_triples("a p b .\nc p d .\ne p f .\ng p h ."))
    p = strings.predicate_id("p")
    cost = cluster.cost
    parts = []
    for node_id in range(3):
        meter = LatencyMeter()
        parts.append(store.local_index(node_id, p, DIR_OUT, meter))
        assert meter.ns == cost.hash_probe_ns \
            + cost.scan_entry_ns * len(parts[-1])
    got, want = LatencyMeter(), LatencyMeter()
    gathered = store.gather_index(0, p, DIR_OUT, got)
    want.charge(cost.hash_probe_ns, times=3, category="store")
    want.charge(cost.scan_entry_ns, times=4, category="store")
    for part in parts[1:]:
        if part:
            cluster.fabric.remote_read(want, 16 + 8 * len(part),
                                       category="network")
    assert gathered == parts[0] + parts[1] + parts[2]
    assert got.breakdown_ps == want.breakdown_ps


def test_persistent_access_snapshot_bound():
    cluster, strings, store = build(num_nodes=1)
    load_triples(store, parse_triples("a p b ."))
    load_triples(store, parse_triples("a p c ."), sn=3)
    a = strings.entity_id("a")
    p = strings.predicate_id("p")

    old = PersistentAccess(store, max_sn=0)
    new = PersistentAccess(store, max_sn=3)
    assert old.neighbors_many((a,), p, DIR_OUT, LatencyMeter())[a] == \
        [strings.entity_id("b")]
    assert new.neighbors_many((a,), p, DIR_OUT, LatencyMeter())[a] == \
        [strings.entity_id("b"), strings.entity_id("c")]
