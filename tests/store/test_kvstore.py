"""Tests for the snapshot-versioned shard store."""

import copy
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import WindowAccess
from repro.core.stream_index import (ColumnarSlice, IndexSlice,
                                     StreamIndexRegistry)
from repro.core.transient import TransientStore
from repro.errors import StoreError
from repro.rdf.ids import DIR_IN, DIR_OUT, make_key, split_key
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter, MemoryModel
from repro.store.distributed import DistributedStore
from repro.store.kvstore import BASE_SN, ShardStore
from repro.streams.stream import StreamSchema

KEY = make_key(1, 4, DIR_OUT)


def put(shard, key, vid, sn=BASE_SN, meter=None):
    """Write one entry as a one-entry column; returns its
    ``(key, offset, length)`` span."""
    (span,) = shard.append_column([key], [vid], sn=sn, meter=meter)
    return span


def test_insert_and_lookup():
    shard = ShardStore()
    put(shard, KEY, 5)
    put(shard, KEY, 6)
    assert shard.lookup_versions(KEY)[0] == [5, 6]


def test_lookup_missing_key_is_empty():
    assert ShardStore().lookup_versions(KEY) == ([], [])


def test_snapshot_visibility():
    shard = ShardStore()
    put(shard, KEY, 5, sn=0)
    put(shard, KEY, 6, sn=1)
    put(shard, KEY, 7, sn=2)
    assert shard.lookup_versions(KEY, max_sn=0)[0] == [5]
    assert shard.lookup_versions(KEY, max_sn=1)[0] == [5, 6]
    assert shard.lookup_versions(KEY, max_sn=2)[0] == [5, 6, 7]
    assert shard.lookup_versions(KEY, max_sn=None)[0] == [5, 6, 7]


def test_sn_order_enforced_per_key():
    shard = ShardStore()
    put(shard, KEY, 5, sn=2)
    with pytest.raises(StoreError):
        put(shard, KEY, 6, sn=1)


def test_refused_column_writes_nothing():
    """A column refused for one key's out-of-order SN leaves no trace of
    the keys that were in order — no entry, no index vertex, no planner
    statistic, no charge."""
    shard = ShardStore()
    k1, k2 = make_key(1, 2, DIR_OUT), make_key(2, 2, DIR_OUT)
    shard.append_column([k2], [20], sn=5)
    before = copy.deepcopy(_state(shard))
    meter = LatencyMeter()
    with pytest.raises(StoreError):
        shard.append_column([k1, k2], [10, 21], sn=3, meter=meter)
    assert _state(shard) == before
    assert meter.ps == 0
    assert shard.predicate_entries(2, DIR_OUT) == 1
    assert shard.index_vertices(2, DIR_OUT) == [2]
    # Below the high-water SN, a column whose keys are all in order is
    # still accepted.
    shard.append_column([k1], [10], sn=3)
    assert shard.lookup_versions(k1)[0] == [10]


def test_same_sn_appends_fine():
    shard = ShardStore()
    put(shard, KEY, 5, sn=2)
    put(shard, KEY, 6, sn=2)
    assert shard.lookup_versions(KEY, max_sn=2)[0] == [5, 6]


def test_spans_address_exact_entries():
    shard = ShardStore()
    spans = [put(shard, KEY, vid) for vid in (5, 6, 7)]
    assert spans == [(KEY, 0, 1), (KEY, 1, 1), (KEY, 2, 1)]
    assert shard.lookup_span(*spans[1]) == [6]
    assert shard.lookup_span(KEY, 1, 2) == [6, 7]


def test_span_out_of_bounds_rejected():
    shard = ShardStore()
    put(shard, KEY, 5)
    with pytest.raises(StoreError):
        shard.lookup_span(KEY, 0, 2)
    with pytest.raises(StoreError):
        shard.lookup_span(make_key(9, 9, 0), 0, 1)


def test_compaction_folds_old_snapshots():
    shard = ShardStore()
    put(shard, KEY, 5, sn=1)
    put(shard, KEY, 6, sn=2)
    put(shard, KEY, 7, sn=3)
    shard.compact(2)
    # Visibility at or above the bound is unchanged...
    assert shard.lookup_versions(KEY, max_sn=2)[0] == [5, 6]
    assert shard.lookup_versions(KEY, max_sn=3)[0] == [5, 6, 7]
    # ...and everything at or below the bound became base-visible.
    assert shard.lookup_versions(KEY, max_sn=0)[0] == [5, 6]
    assert shard.lookup_versions(KEY)[1] == [BASE_SN, BASE_SN, 3]


def test_write_rules_at_the_frontier():
    """A write between the base and the frontier is refused; so is a
    base write onto a key with an SN above the frontier, with the text
    an out-of-order stamped write gets.  A base write to a settled key
    is accepted and reads as the base at every bound."""
    shard = ShardStore()
    put(shard, KEY, 5, sn=1)
    put(shard, KEY, 6, sn=3)
    shard.compact(2)
    with pytest.raises(StoreError) as refused:
        put(shard, KEY, 7, sn=2)
    assert str(refused.value) == \
        "snapshot 2 is at or below the scalarization frontier 2"
    with pytest.raises(StoreError) as refused:
        put(shard, KEY, 7)
    assert str(refused.value) == \
        "snapshot numbers must be appended in order: 0 after 3"
    shard.compact(3)
    put(shard, KEY, 7)
    assert shard._sns == {}
    for max_sn in (None, BASE_SN, 1, 2, 3, 4):
        assert shard.lookup_versions(KEY, max_sn) == \
            ([5, 6, 7], [BASE_SN] * 3)
        assert shard.lookup_many([KEY], max_sn)[0] == [[5, 6, 7]]
    assert shard.segments(KEY) == 1


def test_compaction_preserves_spans():
    shard = ShardStore()
    spans = [put(shard, KEY, vid, sn=sn)
             for sn, vid in [(1, 5), (2, 6), (3, 7)]]
    shard.compact(2)
    assert shard.lookup_span(*spans[0]) == [5]
    assert shard.lookup_span(*spans[2]) == [7]


_COLUMN = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1),
                             st.integers(1, 50)), min_size=1, max_size=8)
_APPEND = st.tuples(st.just("append"), st.integers(0, 2), _COLUMN)
#: A column at the base SN, however far the stream SNs have come.
_BASE = st.tuples(st.just("base"), st.just(0), _COLUMN)
_COMPACT = st.tuples(st.just("compact"), st.integers(0, 3))


def _relabelled_memory(reference, shard):
    """``memory_bytes`` of a shard holding ``reference``'s SN lists."""
    model = MemoryModel()
    values = sum(model.key_bytes + model.entry_bytes * len(vids)
                 + model.sn_segment_bytes * len(set(sns))
                 for vids, sns in reference.values())
    return values + sum(model.key_bytes + model.entry_bytes * len(vertices)
                        for vertices in shard._index.values())


#: Every key ``_COLUMN`` can write, written yet or not (a cached absent
#: key must be invalidated by its first write too).  Each ``lookup_many``
#: reads five of them, a window sliding by one key per call over the
#: pool: with four cache entries, a call hits the four keys the last one
#: read last (at the last call's bound), misses one and evicts one.
_POOL = [make_key(vid, eid, DIR_OUT) for vid in range(1, 5)
         for eid in range(2)]


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(_APPEND, _BASE, _COMPACT), max_size=40))
def test_compaction_matches_relabelling_reference(ops):
    """Random columns mixed with ``compact(bound)``, checked after every
    step against a plain dict-of-lists reference built from the written
    columns (never from the store) that rewrites each SN <= bound to the
    base at every compaction.  Every shard read agrees with it:
    ``lookup_versions`` and ``lookup_many`` at bounds below, at and
    above the frontier (``lookup_many`` through a four-entry adjacency
    cache, over the bounds up and back down, so entries are hit at their
    own bound and across bounds, evicted and invalidated by writes),
    ``lookup_span``
    over every span ``append_column`` returned, ``segments``,
    ``degree``, ``num_keys``, ``num_entries`` and ``memory_bytes``.
    The layout too: the keys holding an SN list are exactly those with
    an entry above the frontier.  The write rule too: a column strictly
    between the base and the frontier is refused, and so is a base
    column holding a key whose last SN is above the frontier; any other
    base column is accepted and reads as the base."""
    shard = ShardStore(adjacency_capacity=4)
    reference = {}
    #: (span, the vids its column wrote to its key) per accepted write.
    spans = []
    sn = frontier = BASE_SN
    turn = 0
    for op in ops:
        if op[0] == "compact":
            bound = sn - op[1]
            shard.compact(bound)
            frontier = max(frontier, bound)
            reference = {key: (vids, [BASE_SN if s <= bound else s
                                      for s in sns])
                         for key, (vids, sns) in reference.items()}
        else:
            kind, step, entries = op
            if kind == "append":
                sn += step
            write_sn = sn if kind == "append" else BASE_SN
            keys = [make_key(vid, eid, DIR_OUT) for vid, eid, _ in entries]
            vids = [value for _, _, value in entries]
            if BASE_SN < write_sn <= frontier or any(
                    reference[key][1][-1] > write_sn
                    for key in keys if key in reference):
                with pytest.raises(StoreError):
                    shard.append_column(keys, vids, sn=write_sn)
            else:
                written = shard.append_column(keys, vids, sn=write_sn)
                groups = {}
                for key, vid in zip(keys, vids):
                    groups.setdefault(key, []).append(vid)
                want = []
                for key, group in groups.items():
                    held = reference.setdefault(key, ([], []))
                    want.append((key, len(held[0]), len(group)))
                    held[0].extend(group)
                    held[1].extend([write_sn] * len(group))
                assert written == want
                spans += zip(written, groups.values())
        assert set(shard._sns) == {key for key, (_, sns) in reference.items()
                                   if sns[-1] > frontier}
        bounds = [None, BASE_SN,
                  *range(max(BASE_SN + 1, frontier - 2), sn + 2)]

        def cut(sns, max_sn):
            return len(sns) if max_sn is None else bisect_right(sns, max_sn)

        for key, (vids, sns) in reference.items():
            assert shard.segments(key) == len(set(sns))
            for max_sn in bounds:
                at = cut(sns, max_sn)
                assert shard.lookup_versions(key, max_sn) == \
                    (vids[:at], sns[:at])
        empty = ([], [])
        for max_sn in bounds + bounds[::-1]:
            turn = (turn + 1) % len(_POOL)
            keys = (_POOL * 2)[turn:turn + 5]
            entries = [reference.get(key, empty) for key in keys]
            want = [vids[:cut(sns, max_sn)] for vids, sns in entries]
            assert shard.lookup_many(keys, max_sn) == (
                want, sum(map(len, want)),
                16 * len(keys) + 8 * sum(len(vids) for vids, _ in entries))
        for span, group in spans:
            assert shard.lookup_span(*span) == group
        for key in _POOL:
            vid, eid, d = split_key(key)
            held = reference.get(key)
            assert shard.degree(eid, d, vid) == \
                (None if held is None else len(held[0]))
        assert shard.num_keys == len(reference)
        assert shard.num_entries == sum(
            len(vids) for vids, _ in reference.values())
        assert shard.memory_bytes() == _relabelled_memory(reference, shard)


class _SliceWriteCounter(list):
    """A value list that counts the entries written over existing ones."""

    written = 0

    def __setitem__(self, index, value):
        self.written += len(value) if isinstance(index, slice) else 1
        super().__setitem__(index, value)


def test_settled_keys_hold_no_sn_list():
    """A 50 000-entry bulk load writes no SN list.  A key then compacted
    once per appended SN keeps exactly the one SN above the frontier,
    and its base entries are never rewritten."""
    shard = ShardStore()
    shard.append_column([KEY] * 50_000, list(range(50_000)))
    assert shard._sns == {}
    shard._vids[KEY] = counter = _SliceWriteCounter(shard._vids[KEY])
    for t in range(1, 201):
        put(shard, KEY, t, sn=t)
        shard.compact(t - 1)
    assert shard._sns == {KEY: [200]}
    assert shard._vids[KEY] is counter and counter.written == 0
    assert counter == list(range(50_000)) + list(range(1, 201))
    assert shard.lookup_versions(KEY)[1] == [BASE_SN] * 50_199 + [200]
    assert shard.segments(KEY) == 2


def test_index_vertices_deduplicate():
    shard = ShardStore()
    cost = shard.cost
    first, again, other = LatencyMeter(), LatencyMeter(), LatencyMeter()
    put(shard, KEY, 5, meter=first)
    put(shard, KEY, 6, meter=again)
    put(shard, make_key(2, 4, DIR_OUT), 5, meter=other)
    assert shard.index_vertices(4, DIR_OUT) == [1, 2]
    assert shard.index_vertices(4, DIR_IN) == []
    # A new index entry is charged like a value entry; a vertex the
    # index vertex already lists is not registered (or charged) again.
    assert first.ns == cost.create_key_ns + 2 * cost.insert_entry_ns
    assert again.ns == cost.insert_entry_ns
    assert other.ns == first.ns


#: A column over both directions: (vid, eid, d, value) per entry.
_DIRECTED = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2),
                               st.sampled_from([DIR_IN, DIR_OUT]),
                               st.integers(1, 50)), min_size=1, max_size=8)
_STREAM = st.tuples(st.just("append"), st.integers(0, 2), _DIRECTED)
_BASE_DIRECTED = st.tuples(st.just("base"), st.just(0), _DIRECTED)
#: A column below the highest SN written so far (refused unless its
#: keys' last SNs allow it).
_STALE = st.tuples(st.just("stale"), st.integers(1, 2), _DIRECTED)
_GROUPS = [(eid, d) for eid in (1, 2) for d in (DIR_IN, DIR_OUT)]


def _statistics(shard):
    """What the planner reads per ``(eid, d)``: the index vertex, the
    key count and the entry count."""
    return {(eid, d): (list(shard.index_vertices(eid, d)),
                       shard.predicate_keys(eid, d),
                       shard.predicate_entries(eid, d))
            for eid, d in _GROUPS}


def _derived_statistics(shard):
    """The same, rebuilt from the keys in creation order and their
    whole value lists."""
    vertices = {group: [] for group in _GROUPS}
    entries = dict.fromkeys(_GROUPS, 0)
    for key in shard.iter_keys():
        vid, eid, d = split_key(key)
        vertices[(eid, d)].append(vid)
        entries[(eid, d)] += len(shard.lookup_versions(key)[0])
    return {group: (vertices[group], len(vertices[group]), entries[group])
            for group in _GROUPS}


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(_STREAM, _BASE_DIRECTED, _STALE, _COMPACT),
                max_size=40))
def test_index_vertices_follow_key_creation(ops):
    """Random columns (stream SNs, base columns onto folded and unfolded
    keys, stale SNs) mixed with compaction: after every step the index
    vertices, ``predicate_keys`` and ``predicate_entries`` equal what
    the keys in creation order and their value lists give, an accepted
    column charges one index entry per key it creates, and a refused
    one changes none of them."""
    shard = ShardStore()
    cost = shard.cost
    sn = BASE_SN
    for op in ops:
        if op[0] == "compact":
            shard.compact(sn - op[1])
            continue
        kind, step, entries = op
        if kind == "append":
            sn += step
        write_sn = {"append": sn, "base": BASE_SN,
                    "stale": max(BASE_SN, sn - step)}[kind]
        keys = [make_key(vid, eid, d) for vid, eid, d, _ in entries]
        values = [value for _, _, _, value in entries]
        before = _statistics(shard)
        created = len(set(keys) - set(shard.iter_keys()))
        meter = LatencyMeter()
        try:
            shard.append_column(keys, values, sn=write_sn, meter=meter)
        except StoreError:
            assert _statistics(shard) == before
            assert meter.ns == 0
        else:
            assert meter.ns == cost.create_key_ns * created \
                + cost.insert_entry_ns * (len(keys) + created)
        assert _statistics(shard) == _derived_statistics(shard)


def test_costs_charged_on_lookup():
    """The shard prices no read; the persistent store's reader charges
    one hash probe per distinct key plus a scan of its visible prefix,
    for value and version reads alike."""
    cluster = Cluster(num_nodes=1)
    store = DistributedStore(cluster, StringServer())
    store.shards[0].append_column([KEY, KEY], [5, 6])
    vid, eid, d = split_key(KEY)
    cost = cluster.cost
    for read in (store.neighbors_many, store.neighbors_versions_batch):
        meter = LatencyMeter()
        read(0, [vid, vid], eid, d, meter)
        assert meter.ns == cost.hash_probe_ns + 2 * cost.scan_entry_ns


def test_span_read_skips_hash_probe():
    """A window read reaches the entries through the stream index's
    span: its reader charges an index probe per live slice and a scan of
    the span, and no hash probe of the key."""
    cluster = Cluster(num_nodes=1)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    registry = StreamIndexRegistry()
    index = registry.create_stream("S")
    u, po = strings.entity_id("u"), strings.predicate_id("po")
    piece = IndexSlice(1)
    piece.add_batch_spans(0, store.shards[0].append_column(
        [make_key(u, po, DIR_OUT)] * 2, [7, 8], sn=1))
    index.append_slice(piece)
    access = WindowAccess(
        cluster=cluster, store=store, strings=strings, registry=registry,
        stream_schema=StreamSchema("S", frozenset()),
        transients=[TransientStore("S")],
        view=ColumnarSlice(index, store).advance(1, 1),
        force_local_index=True)
    meter = LatencyMeter()
    assert access.neighbors_many((u,), po, DIR_OUT, meter)[u] == [7, 8]
    cost = cluster.cost
    assert meter.ns == cost.index_probe_ns + 2 * cost.scan_entry_ns


def test_memory_accounting_counts_segments():
    shard = ShardStore()
    put(shard, KEY, 5, sn=1)
    put(shard, KEY, 6, sn=2)
    before = shard.memory_bytes()
    shard.compact(2)
    after = shard.memory_bytes()
    assert after < before  # two SN segments collapsed into one


def test_stats():
    shard = ShardStore()
    put(shard, KEY, 5)
    put(shard, make_key(2, 4, DIR_OUT), 1)
    assert shard.num_keys == 2
    assert shard.num_entries == 2


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 100)),
                min_size=1, max_size=40))
def test_visibility_is_monotonic_in_sn(entries):
    """Reading at a larger snapshot never sees fewer entries (prefix reads)."""
    shard = ShardStore()
    entries = sorted(entries, key=lambda e: e[0])
    for sn, vid in entries:
        put(shard, KEY, vid, sn=sn)
    previous = []
    for sn in range(0, 7):
        visible = shard.lookup_versions(KEY, max_sn=sn)[0]
        assert visible[:len(previous)] == previous
        previous = visible
    assert previous == [vid for _, vid in entries]


def _coalesced(spans):
    """Per key, in first-occurrence order, its spans folded end to start."""
    folded = {}
    for key, offset, length in spans:
        known = folded.get(key)
        if known is None:
            folded[key] = (key, offset, length)
        else:
            _, known_offset, known_length = known
            assert known_offset + known_length == offset
            folded[key] = (key, known_offset, known_length + length)
    return list(folded.values())


def _state(shard):
    """Everything a column write leaves behind, dict orders included."""
    buckets = [(eid, d) for eid in range(3) for d in (DIR_IN, DIR_OUT)]
    return {
        "vids": list(shard._vids.items()),
        "sns": list(shard._sns.items()),
        "index": list(shard._index.items()),
        "entries": [shard.predicate_entries(*b) for b in buckets],
        "keys": [shard.predicate_keys(*b) for b in buckets],
    }


_ENTRY = st.tuples(st.integers(1, 12), st.integers(0, 2),
                   st.sampled_from([DIR_IN, DIR_OUT]), st.integers(1, 30))


@given(st.lists(_ENTRY, max_size=60), st.lists(_ENTRY, max_size=60))
def test_one_column_write_equals_one_entry_columns(loaded, batch):
    """Writing an arrival-ordered column at once leaves the shard, the
    returned spans and the meter exactly as writing its entries one at a
    time does — over a loaded base (SN 0) and a later batch (SN 3)."""
    whole, single = ShardStore(), ShardStore()
    whole_meter, single_meter = LatencyMeter(), LatencyMeter()
    for sn, entries in ((BASE_SN, loaded), (3, batch)):
        keys = [make_key(vid, eid, d) for vid, eid, d, _ in entries]
        vids = [value for _, _, _, value in entries]
        spans = whole.append_column(keys, vids, sn=sn, meter=whole_meter)
        one_by_one = [put(single, key, vid, sn=sn, meter=single_meter)
                      for key, vid in zip(keys, vids)]
        assert spans == _coalesced(one_by_one)
        assert [key for key, _, _ in spans] == list(dict.fromkeys(keys))
    assert _state(whole) == _state(single)
    assert whole_meter.ps == single_meter.ps
    assert whole_meter.breakdown_ps == single_meter.breakdown_ps
