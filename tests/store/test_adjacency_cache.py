"""Adjacency-segment cache: charge equality, invalidation, statistics.

The cache is a wall-clock optimization only — a hit must charge exactly
the remote reads, hash probe and per-entry scan an uncached lookup
charges, in the same order, so simulated time never depends on cache
state.  Inserts invalidate the written key; cached segments survive
compaction and serve any snapshot bound that bisects to the same
visible prefix (each hit is validated against the live SN list).
"""

from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.store.kvstore import BASE_SN


def build(num_nodes=1):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    return cluster, strings, store


def test_cache_hit_returns_same_neighbors_and_charges():
    cluster, strings, store = build()
    store.load(parse_triples("a p b .\na p c ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")

    miss_meter = LatencyMeter()
    missed = store.neighbors_from(0, a, p, DIR_OUT, miss_meter)
    hit_meter = LatencyMeter()
    hit = store.neighbors_from(0, a, p, DIR_OUT, hit_meter)

    assert hit == missed
    assert store.shards[0].cached_adjacency(make_key(a, p, DIR_OUT),
                                            None) is not None
    assert hit_meter.ns == miss_meter.ns


def test_remote_cache_hit_charges_identically():
    cluster, strings, store = build(num_nodes=2)
    store.load(parse_triples("a p b .\na p c .\na p d ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    remote_home = (cluster.owner_of(a) + 1) % 2

    miss_meter = LatencyMeter()
    missed = store.neighbors_from(remote_home, a, p, DIR_OUT, miss_meter)
    hit_meter = LatencyMeter()
    hit = store.neighbors_from(remote_home, a, p, DIR_OUT, hit_meter)

    assert hit == missed
    assert hit_meter.ns == miss_meter.ns


def test_insert_invalidates_written_key():
    cluster, strings, store = build()
    store.load(parse_triples("a p b ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    p = strings.predicate_id("p")

    assert store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter()) == [b]
    # Grow a's adjacency list after it was cached.
    enc = strings.encode_triple(parse_triples("a p e .")[0])
    store.insert_triples([enc], sn=BASE_SN)
    e = strings.entity_id("e")
    assert store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter()) == [b, e]


def test_cache_entries_are_snapshot_specific():
    cluster, strings, store = build()
    store.load(parse_triples("a p b ."))
    enc = strings.encode_triple(parse_triples("a p c .")[0])
    store.insert_triples([enc], sn=BASE_SN + 5)
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    c = strings.entity_id("c")
    p = strings.predicate_id("p")

    old = store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter(),
                               max_sn=BASE_SN)
    assert old == [b]
    # A different snapshot must not be served from the BASE_SN entry.
    new = store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter(),
                               max_sn=BASE_SN + 5)
    assert new == [b, c]


def test_cached_segments_survive_compaction():
    """Relabelling moves SNs, never values, so entries stay correct."""
    cluster, strings, store = build()
    store.load(parse_triples("a p b ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    key = make_key(a, p, DIR_OUT)

    store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter())
    assert store.shards[0].cached_adjacency(key, None) is not None
    store.compact(BASE_SN)
    assert store.shards[0].cached_adjacency(key, None) is not None
    assert store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter()) == [
        strings.entity_id("b")]


def test_versioned_reads_after_compaction_stay_correct():
    """A segment cached at an old bound must not serve a bound whose
    visible prefix differs, before or after compaction relabels SNs."""
    cluster, strings, store = build()
    store.load(parse_triples("a p b ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    p = strings.predicate_id("p")
    c = strings.entity_id("c")
    store.shards[0].append_column([make_key(a, p, DIR_OUT)], [c],
                                  sn=BASE_SN + 3)

    meter = LatencyMeter()
    assert store.neighbors_from(0, a, p, DIR_OUT, meter,
                                max_sn=BASE_SN) == [b]
    # Different bound, different prefix: the BASE_SN entry must miss.
    assert store.neighbors_from(0, a, p, DIR_OUT, meter,
                                max_sn=BASE_SN + 3) == [b, c]
    store.compact(BASE_SN + 3)
    # After relabelling everything into the base, any bound sees both.
    assert store.neighbors_from(0, a, p, DIR_OUT, meter,
                                max_sn=BASE_SN) == [b, c]


def test_predicate_cardinality_counts_entries_and_keys():
    cluster, strings, store = build(num_nodes=2)
    store.load(parse_triples("a p b .\na p c .\nb p c .\na q b ."))
    p = strings.predicate_id("p")
    q = strings.predicate_id("q")

    # p: three edges from two subjects (a, b) onto two objects (b, c).
    assert store.predicate_cardinality(p, DIR_OUT) == (3, 2)
    assert store.predicate_cardinality(p, DIR_IN) == (3, 2)
    assert store.predicate_cardinality(q, DIR_OUT) == (1, 1)
    # Unknown predicates count as empty.
    assert store.predicate_cardinality(q + 999, DIR_OUT) == (0, 0)


def test_cache_counters_track_hits_misses():
    cluster, strings, store = build()
    store.load(parse_triples("a p b ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    shard = store.shards[0]
    base_misses = shard.adjacency_misses

    store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter())
    assert shard.adjacency_misses == base_misses + 1
    store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter())
    store.neighbors_from(0, a, p, DIR_OUT, LatencyMeter())
    assert shard.adjacency_hits == 2


def test_configured_capacity_and_eviction_counter():
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings, adjacency_capacity=2)
    store.load(parse_triples("a p x .\nb p x .\nc p x ."))
    p = strings.predicate_id("p")
    shard = store.shards[0]
    for name in ("a", "b", "c"):
        vid = strings.entity_id(name)
        store.neighbors_from(0, vid, p, DIR_OUT, LatencyMeter())
    assert len(shard._adjacency) == 2
    assert shard.adjacency_evictions == 1


def test_fifo_evicts_in_insertion_order_even_after_a_hit():
    """The cache is FIFO: re-referencing a key does not refresh it."""
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings, adjacency_capacity=2)
    store.load(parse_triples("h p x .\na p x .\nb p x ."))
    p = strings.predicate_id("p")
    vids = {n: strings.entity_id(n) for n in ("h", "a", "b")}
    # Fill: h, a.  Touch h again.  Insert b (one eviction).
    for name in ("h", "a", "h", "b"):
        store.neighbors_from(0, vids[name], p, DIR_OUT, LatencyMeter())
    shard = store.shards[0]
    assert shard.cached_adjacency(make_key(vids["h"], p, DIR_OUT),
                                  None) is None
    assert shard.cached_adjacency(make_key(vids["a"], p, DIR_OUT),
                                  None) is not None
