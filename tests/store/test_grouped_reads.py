"""Grouped persistent-store reads equal the documented per-key reads.

``DistributedStore.neighbors_many`` reads each owner group with one
``ShardStore.lookup_many`` and issues aggregated charges.  The reference
here reads one key at a time with the documented pricing — one hash
probe plus a scan of the visible prefix per key, and for a key held off
the home node two remote reads of ``_KEY_BYTES`` and ``16 + 8 * len``
bytes — and keeps the adjacency-segment cache by the per-key rule (a hit
when the recorded bound equals the read's effective bound — ``max_sn``
raised to the scalarization frontier — or when the read's bound bisects
to the recorded prefix length; a miss re-records the key, at its
effective bound, at the back of a bounded FIFO).  Random writes,
compactions and reads (with duplicate vids and bounds below cached ones
and below the frontier) must leave both stores with the same results,
meter readings, fabric counters and cache state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import _KEY_BYTES, DistributedStore

_VIDS = st.integers(min_value=1, max_value=5)
_EIDS = st.integers(min_value=1, max_value=2)
_DIRS = st.sampled_from((DIR_OUT, DIR_IN))
_CAPACITY = 4

_write = st.tuples(st.just("write"), st.integers(min_value=0, max_value=2),
                   st.lists(st.tuples(_VIDS, _EIDS, _VIDS), min_size=1,
                            max_size=6))
_compact = st.tuples(st.just("compact"), st.integers(min_value=0,
                                                      max_value=8))
#: A read op reads the same vids at one to three bounds in turn, so a
#: segment cached at one bound is probed at newer and older ones.
_read = st.tuples(st.just("read"), st.integers(min_value=0, max_value=2),
                  st.lists(_VIDS, min_size=0, max_size=8), _EIDS, _DIRS,
                  st.lists(st.one_of(st.none(),
                                     st.integers(min_value=0, max_value=6)),
                           min_size=1, max_size=3),
                  st.booleans())


def _reference_read(store, home, vids, eid, d, meter, max_sn):
    """The per-key read: one cache probe, one lookup and the per-key
    charges for each distinct vid, in first-occurrence order."""
    fabric = store.cluster.fabric
    cost = store.cluster.cost
    out = {}
    for vid in vids:
        if vid in out:
            continue
        owner = store.cluster.owner_of(vid)
        shard = store.shards[owner]
        key = make_key(vid, eid, d)
        visible = shard.lookup_versions(key, max_sn=max_sn)[0]
        total = len(shard.lookup_versions(key)[0])
        cache = shard._adjacency
        entry = cache.get(key)
        # The cache records the read's effective bound: max_sn raised to
        # the shard's scalarization frontier.
        bound = max_sn if max_sn is None else max(max_sn, shard._frontier)
        if entry is not None and (entry[0] == bound
                                  or len(visible) == len(entry[1])):
            shard.adjacency_hits += 1
            assert entry[1] == visible
        else:
            shard.adjacency_misses += 1
            cache.pop(key, None)
            if len(cache) >= shard.adjacency_capacity:
                del cache[next(iter(cache))]
                shard.adjacency_evictions += 1
            cache[key] = (bound, visible, total)
        if owner != home:
            fabric.remote_read(meter, _KEY_BYTES, category="network")
            fabric.remote_read(meter, 16 + 8 * total, category="network")
        meter.charge(cost.hash_probe_ns, category="store")
        meter.charge(cost.scan_entry_ns, times=len(visible),
                     category="store")
        out[vid] = visible
    return out


def _reference_versions(store, home, vids, eid, d, meter, max_sn):
    """The per-key version read, with the same per-key charges as
    :func:`_reference_read` (the SN column rides along with the scan)."""
    fabric = store.cluster.fabric
    cost = store.cluster.cost
    out = {}
    for vid in vids:
        if vid in out:
            continue
        owner = store.cluster.owner_of(vid)
        shard = store.shards[owner]
        key = make_key(vid, eid, d)
        if owner != home:
            fabric.remote_read(meter, _KEY_BYTES, category="network")
            fabric.remote_read(meter, shard.value_bytes(key),
                               category="network")
        found = out[vid] = shard.lookup_versions(key, max_sn=max_sn)
        meter.charge(cost.hash_probe_ns, category="store")
        meter.charge(cost.scan_entry_ns, times=len(found[0]),
                     category="store")
    return out


def _cache_state(store):
    return [(shard.adjacency_hits, shard.adjacency_misses,
             shard.adjacency_evictions, list(shard._adjacency.items()))
            for shard in store.shards]


@settings(max_examples=300, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=3),
       use_rdma=st.booleans(),
       ops=st.lists(st.one_of(_write, _compact, _read), max_size=25))
def test_grouped_reads_equal_per_key_reads(num_nodes, use_rdma, ops):
    stores = [DistributedStore(Cluster(num_nodes=num_nodes,
                                       use_rdma=use_rdma),
                               StringServer(), adjacency_capacity=_CAPACITY)
              for _ in range(2)]
    grouped, reference = stores
    sn = 0
    for op in ops:
        if op[0] == "write":
            sn += op[1]
            s, p, o = map(list, zip(*op[2]))
            columns = EncodedColumns(s, p, o, [0] * len(s))
            for store in stores:
                store.insert_columns(columns, sn=sn)
        elif op[0] == "compact":
            # Below the newest SN, as the coordinator's bound stays below
            # every SN still being written.
            bound = min(op[1], sn - 1)
            grouped.compact(bound)
            reference.compact(bound)
        else:
            _, home, vids, eid, d, bounds, versions = op
            home %= num_nodes
            for max_sn in bounds:
                got_meter, want_meter = LatencyMeter(), LatencyMeter()
                if versions:
                    got = grouped.neighbors_versions_batch(
                        home, vids, eid, d, got_meter, max_sn=max_sn)
                    want = _reference_versions(reference, home, vids, eid,
                                               d, want_meter, max_sn)
                else:
                    got = grouped.neighbors_many(home, vids, eid, d,
                                                 got_meter, max_sn=max_sn)
                    want = _reference_read(reference, home, vids, eid, d,
                                           want_meter, max_sn)
                assert list(got.items()) == list(want.items())
                assert got_meter.ps == want_meter.ps
                assert got_meter.breakdown_ps == want_meter.breakdown_ps
                assert _cache_state(grouped) == _cache_state(reference)
        assert grouped.cluster.fabric.stats == reference.cluster.fabric.stats
        assert _cache_state(grouped) == _cache_state(reference)
