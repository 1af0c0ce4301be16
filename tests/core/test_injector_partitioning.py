"""Property tests for the injector's lock-free key-space partitioning."""

from hypothesis import given, settings, strategies as st

from repro.core.injector import Injector
from repro.core.transient import TransientStore
from repro.rdf.terms import EncodedColumns
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.store.distributed import DistributedStore


def make_injector(threads, num_nodes=1):
    cluster = Cluster(num_nodes=num_nodes)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    return Injector(0, store, {"S": TransientStore("S")}, threads=threads)


def columns(rows):
    """Rows ``(s, p, o)`` as columns; a row's timestamp is its index, so
    every row is identifiable after partitioning."""
    s, p, o = (list(column) for column in zip(*rows)) if rows \
        else ([], [], [])
    return EncodedColumns(s, p, o, list(range(len(rows))))


def rows_of(part):
    return list(zip(part.s, part.p, part.o, part.ts))


tuples_strategy = st.lists(
    st.tuples(st.integers(1, 40), st.integers(1, 5), st.integers(1, 40)),
    max_size=60,
).map(columns)


@settings(max_examples=50, deadline=None)
@given(tuples=tuples_strategy, threads=st.sampled_from([1, 2, 3, 4, 8]))
def test_partitioning_is_a_partition(tuples, threads):
    """Every row lands in exactly one partition, whole."""
    injector = make_injector(threads)
    parts = injector._partition(tuples, by_subject=True)
    assert len(parts) == (1 if threads == 1 else threads)
    flattened = [row for part in parts for row in rows_of(part)]
    assert sorted(flattened, key=lambda row: row[3]) == rows_of(tuples)


@settings(max_examples=50, deadline=None)
@given(tuples=tuples_strategy, threads=st.sampled_from([2, 4, 8]),
       by_subject=st.booleans())
def test_same_key_same_partition(tuples, threads, by_subject):
    """All rows touching one key vertex go to one thread (the lock-free
    guarantee) and keep their arrival order within it."""
    injector = make_injector(threads)
    parts = injector._partition(tuples, by_subject=by_subject)
    owner = {}
    for index, part in enumerate(parts):
        vertex = part.s if by_subject else part.o
        for vid in vertex:
            assert owner.setdefault(vid, index) == index
        # Arrival order within each partition is preserved.
        assert part.ts == sorted(part.ts)


@settings(max_examples=20, deadline=None)
@given(tuples=tuples_strategy)
def test_partitioning_avoids_cluster_aliasing(tuples):
    """With threads == num_nodes, partitioning must still spread keys.

    (Regression: `vid % threads` aliased the cluster's `vid % num_nodes`
    placement, collapsing every local key into partition 0.)
    """
    injector = make_injector(threads=4, num_nodes=4)
    # Only node-0 keys, as the dispatcher would deliver them.
    local = tuples.take([i for i, s in enumerate(tuples.s) if s % 4 == 0])
    if len(set(local.s)) < 4:
        return
    parts = injector._partition(local, by_subject=True)
    assert sum(1 for p in parts if p) >= 2
