"""Static data enters as columns, checked against per-triple references.

``StringServer.encode_triples`` maps whole columns and then allocates
unseen names row by row; the reference here encodes one triple at a
time.  ``DistributedStore.insert_columns`` writes one column per shard,
out entries then in entries; the reference writes one entry per
``ShardStore.append_column`` call, triple by triple, out half before in
half.  Both must leave the same ids, per-key value and SN lists,
index-vertex lists, entry counts and charges.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedColumns, Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore
from repro.store.kvstore import BASE_SN
from streams.helpers import timed

_ENTITY = st.sampled_from([f"e{i}" for i in range(16)])
_PREDICATE = st.sampled_from([f"p{i}" for i in range(5)])
_NAMED = st.lists(st.tuples(_ENTITY, _PREDICATE, _ENTITY), max_size=40)

_EIDS = range(1, 4)
_TRIPLES = st.lists(st.tuples(st.integers(min_value=1, max_value=8),
                              st.sampled_from(_EIDS),
                              st.integers(min_value=1, max_value=8)),
                    max_size=12)


def encode_one(strings, triple):
    """The per-triple encoder: subject, predicate, object, each id
    allocated on first sight."""
    return (strings.entity_id(triple.subject),
            strings.predicate_id(triple.predicate),
            strings.entity_id(triple.object))


def write_per_triple(store, triples, sn, meter, node=None):
    """The per-triple writer: each half of each triple is one
    ``append_column`` call on its vertex's owner (only ``node``'s halves
    when given); returns the entries written."""
    written = 0
    for s, p, o in triples:
        for vid, value, d in ((s, o, DIR_OUT), (o, s, DIR_IN)):
            owner = store.cluster.owner_of(vid)
            if node is None or owner == node:
                store.shards[owner].append_column(
                    [make_key(vid, p, d)], [value], sn=sn, meter=meter)
                written += 1
    return written


def as_columns(triples):
    return EncodedColumns([s for s, _, _ in triples],
                          [p for _, p, _ in triples],
                          [o for _, _, o in triples], [0] * len(triples))


def shard_state(shard):
    """Every key's values and SNs, and every index vertex, of one shard."""
    values = {key: shard.lookup_versions(key) for key in shard.iter_keys()}
    index = {(eid, d): shard.index_vertices(eid, d)
             for eid in _EIDS for d in (DIR_OUT, DIR_IN)}
    return values, index


def new_store(num_nodes):
    return DistributedStore(Cluster(num_nodes=num_nodes), StringServer())


@settings(max_examples=150)
@given(warm=st.lists(st.tuples(_ENTITY, _PREDICATE, _ENTITY), max_size=10),
       batch=_NAMED, stamped=st.booleans())
def test_encode_triples_allocates_like_per_triple_encoding(warm, batch,
                                                           stamped):
    """On twin servers already holding the same names, encoding a batch
    as columns yields the per-triple ids and leaves the same name tables:
    new names are allocated in row order, subject before object.  Timed
    tuples keep their stamps; bare triples get zeros."""
    twins = StringServer(), StringServer()
    for server in twins:
        for triple in warm:  # some names known, the rest new
            encode_one(server, Triple(*triple))
    triples = [Triple(*triple) for triple in batch]
    columnar, per_triple = twins
    if stamped:
        stamps = list(range(len(triples)))
        columns = columnar.encode_columns(
            timed((*triple, ts) for triple, ts in zip(triples, stamps)))
    else:
        stamps = [0] * len(triples)
        columns = columnar.encode_triples(iter(triples))
    encoded = [encode_one(per_triple, triple) for triple in triples]
    assert list(zip(columns.s, columns.p, columns.o)) == encoded
    assert columns.ts == stamps
    assert columnar.name_tables() == per_triple.name_tables()


@settings(max_examples=200, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=3),
       base=_TRIPLES, later=_TRIPLES, sn=st.integers(min_value=1,
                                                      max_value=4))
def test_insert_columns_equals_per_triple_writes(num_nodes, base, later,
                                                 sn):
    """A base write then a later-SN write: the column write and the
    per-triple writes leave every shard alike, count the same entries
    and charge the same; a ``node=`` write rebuilds exactly that shard
    of the full write and touches no other."""
    writes = ((base, BASE_SN), (later, sn))
    store, reference = new_store(num_nodes), new_store(num_nodes)
    for triples, at in writes:
        meter, reference_meter = LatencyMeter(), LatencyMeter()
        written = store.insert_columns(as_columns(triples), sn=at,
                                       meter=meter)
        assert written == write_per_triple(reference, triples, at,
                                           reference_meter)
        assert written == 2 * len(triples)
        assert meter.ps == reference_meter.ps
        assert list(map(shard_state, store.shards)) == \
            list(map(shard_state, reference.shards))

    for node in range(num_nodes):
        rebuilt, node_reference = new_store(num_nodes), new_store(num_nodes)
        for triples, at in writes:
            assert rebuilt.insert_columns(as_columns(triples), sn=at,
                                          node=node) == \
                write_per_triple(node_reference, triples, at,
                                 LatencyMeter(), node=node)
        assert shard_state(rebuilt.shards[node]) == \
            shard_state(store.shards[node])
        assert rebuilt.num_entries == rebuilt.shards[node].num_entries
