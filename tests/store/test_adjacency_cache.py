"""Adjacency-segment cache: charge equality, invalidation, statistics.

The cache is a wall-clock optimization only — a hit must charge exactly
the remote reads, hash probe and per-entry scan an uncached lookup
charges, so simulated time never depends on cache state.  Inserts
invalidate the written key; cached segments survive compaction (it only
raises the frontier, which a read's bound is raised to) and serve any
snapshot bound that bisects to the same visible prefix (validated against
the live SN list), and a segment holding its key's whole list serves
every newer bound without that validation.
"""

from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.store.kvstore import BASE_SN

from store.helpers import load_triples


def read(store, home, vid, eid, meter, max_sn=None):
    """One key's visible list through the grouped read."""
    return store.neighbors_many(home, (vid,), eid, DIR_OUT, meter,
                                max_sn=max_sn)[vid]


def build(num_nodes=1):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    return cluster, strings, store


def test_cache_hit_returns_same_neighbors_and_charges():
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b .\na p c ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")

    miss_meter = LatencyMeter()
    missed = read(store, 0, a, p, miss_meter)
    hit_meter = LatencyMeter()
    hit = read(store, 0, a, p, hit_meter)

    assert hit == missed
    assert make_key(a, p, DIR_OUT) in store.shards[0]._adjacency
    assert store.shards[0].adjacency_hits == 1
    assert hit_meter.ps == miss_meter.ps
    assert hit_meter.breakdown_ps == miss_meter.breakdown_ps


def test_remote_cache_hit_charges_identically():
    cluster, strings, store = build(num_nodes=2)
    load_triples(store, parse_triples("a p b .\na p c .\na p d ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    remote_home = (cluster.owner_of(a) + 1) % 2

    miss_meter = LatencyMeter()
    missed = read(store, remote_home, a, p, miss_meter)
    hit_meter = LatencyMeter()
    hit = read(store, remote_home, a, p, hit_meter)

    assert hit == missed
    assert store.shards[cluster.owner_of(a)].adjacency_hits == 1
    assert hit_meter.ps == miss_meter.ps
    assert hit_meter.breakdown_ps == miss_meter.breakdown_ps


def test_insert_invalidates_written_key():
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    p = strings.predicate_id("p")

    assert read(store, 0, a, p, LatencyMeter()) == [b]
    # Grow a's adjacency list after it was cached.
    load_triples(store, parse_triples("a p e ."))
    e = strings.entity_id("e")
    assert read(store, 0, a, p, LatencyMeter()) == [b, e]


def test_cache_entries_are_snapshot_specific():
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b ."))
    load_triples(store, parse_triples("a p c ."), sn=BASE_SN + 5)
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    c = strings.entity_id("c")
    p = strings.predicate_id("p")

    old = read(store, 0, a, p, LatencyMeter(), max_sn=BASE_SN)
    assert old == [b]
    # A different snapshot must not be served from the BASE_SN entry.
    new = read(store, 0, a, p, LatencyMeter(), max_sn=BASE_SN + 5)
    assert new == [b, c]
    assert store.shards[0].adjacency_hits == 0


def test_cached_segments_survive_compaction():
    """Compaction moves no value and no SN, so entries stay correct."""
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    key = make_key(a, p, DIR_OUT)

    read(store, 0, a, p, LatencyMeter())
    assert key in store.shards[0]._adjacency
    store.compact(BASE_SN)
    assert key in store.shards[0]._adjacency
    assert read(store, 0, a, p, LatencyMeter()) == [
        strings.entity_id("b")]
    assert store.shards[0].adjacency_hits == 1


def test_versioned_reads_after_compaction_stay_correct():
    """A segment cached at an old bound must not serve a bound whose
    visible prefix differs, before or after compaction folds SNs."""
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    p = strings.predicate_id("p")
    c = strings.entity_id("c")
    store.shards[0].append_column([make_key(a, p, DIR_OUT)], [c],
                                  sn=BASE_SN + 3)

    meter = LatencyMeter()
    assert read(store, 0, a, p, meter, max_sn=BASE_SN) == [b]
    # Different bound, different prefix: the BASE_SN entry must miss.
    assert read(store, 0, a, p, meter, max_sn=BASE_SN + 3) == [b, c]
    # Re-record the segment at BASE_SN, a bound the frontier will pass.
    assert read(store, 0, a, p, meter, max_sn=BASE_SN) == [b]
    store.compact(BASE_SN + 3)
    # With the frontier past both entries, any bound sees both — the
    # bound the segment was cached at too.
    assert read(store, 0, a, p, meter, max_sn=BASE_SN) == [b, c]
    assert read(store, 0, a, p, meter, max_sn=BASE_SN + 3) == [b, c]


def test_full_list_entry_serves_newer_bounds_only():
    """A segment that holds its key's whole list serves any newer bound
    (and None) as a hit; an older bound is still validated against the
    live SN list and misses when its prefix is shorter."""
    cluster, strings, store = build()
    load_triples(store, parse_triples("a p b ."))
    a = strings.entity_id("a")
    b = strings.entity_id("b")
    c = strings.entity_id("c")
    p = strings.predicate_id("p")
    key = make_key(a, p, DIR_OUT)
    shard = store.shards[0]
    shard.append_column([key], [c], sn=BASE_SN + 3)

    assert read(store, 0, a, p, LatencyMeter(), max_sn=BASE_SN + 3) == [b, c]
    assert shard._adjacency[key][0] == BASE_SN + 3
    for newer in (BASE_SN + 4, BASE_SN + 100, None):
        assert read(store, 0, a, p, LatencyMeter(), max_sn=newer) == [b, c]
    assert (shard.adjacency_hits, shard.adjacency_misses) == (3, 1)
    # The entry keeps its recorded bound: hits never re-record it.
    assert shard._adjacency[key][0] == BASE_SN + 3

    assert read(store, 0, a, p, LatencyMeter(), max_sn=BASE_SN) == [b]
    assert (shard.adjacency_hits, shard.adjacency_misses) == (3, 2)
    assert shard._adjacency[key] == (BASE_SN, [b], 2)


def test_predicate_cardinality_counts_entries_and_keys():
    cluster, strings, store = build(num_nodes=2)
    load_triples(store, parse_triples("a p b .\na p c .\nb p c .\na q b ."))
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
    load_triples(store, parse_triples("a p b ."))
    a = strings.entity_id("a")
    p = strings.predicate_id("p")
    shard = store.shards[0]
    base_misses = shard.adjacency_misses

    read(store, 0, a, p, LatencyMeter())
    assert shard.adjacency_misses == base_misses + 1
    read(store, 0, a, p, LatencyMeter())
    read(store, 0, a, p, LatencyMeter())
    assert shard.adjacency_hits == 2


def test_configured_capacity_and_eviction_counter():
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings, adjacency_capacity=2)
    load_triples(store, parse_triples("a p x .\nb p x .\nc p x ."))
    p = strings.predicate_id("p")
    shard = store.shards[0]
    for name in ("a", "b", "c"):
        vid = strings.entity_id(name)
        read(store, 0, vid, p, LatencyMeter())
    assert len(shard._adjacency) == 2
    assert shard.adjacency_evictions == 1


def test_fifo_evicts_in_insertion_order_even_after_a_hit():
    """The cache is FIFO: re-referencing a key does not refresh it."""
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings, adjacency_capacity=2)
    load_triples(store, parse_triples("h p x .\na p x .\nb p x ."))
    p = strings.predicate_id("p")
    vids = {n: strings.entity_id(n) for n in ("h", "a", "b")}
    # Fill: h, a.  Touch h again.  Insert b (one eviction).
    for name in ("h", "a", "h", "b"):
        read(store, 0, vids[name], p, LatencyMeter())
    shard = store.shards[0]
    assert list(shard._adjacency) == [make_key(vids["a"], p, DIR_OUT),
                                      make_key(vids["b"], p, DIR_OUT)]
