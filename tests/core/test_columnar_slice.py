"""ColumnarSlice: incremental window deltas vs fresh materialization.

The columnar view must be a pure cache: after any sequence of advances,
every column it serves must equal what a fresh view built directly at
the final range would produce — same values, same merged-span geometry
(the simulated-charge input), same vertex columns.  The counters the
stats dashboard surfaces (hits/misses, delta hits/misses, evictions) are
checked alongside.
"""

from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.core.stream_index import ColumnarSlice, IndexSlice, StreamIndex
from repro.rdf.ids import DIR_IN, DIR_OUT, make_key, split_key

KEY = make_key(7, 3, DIR_OUT)
OTHER = make_key(8, 3, DIR_OUT)


class _FakeShard:
    def __init__(self, values):
        self._values = values

    def lookup_span(self, key, offset, length):
        return self._values[key][offset:offset + length]


class _FakeStore:
    def __init__(self, values):
        self.shards = [_FakeShard(values)]


def make_slice(batch_no, spans):
    piece = IndexSlice(batch_no)
    for owner, span in spans:
        piece.add_batch_spans(owner, [span])
    return piece


def build_fixture():
    """Three batches of KEY (with a duplicate value in batch 1) and one
    batch of OTHER, all owner 0."""
    index = StreamIndex("S")
    index.append_slice(make_slice(1, [(0, (KEY, 0, 3))]))
    index.append_slice(make_slice(2, [(0, (KEY, 3, 2)),
                                      (0, (OTHER, 0, 1))]))
    index.append_slice(make_slice(3, [(0, (KEY, 5, 1))]))
    store = _FakeStore({KEY: [10, 11, 10, 12, 13, 14], OTHER: [20]})
    return index, store


def assert_same_view(advanced, fresh, keys=(KEY, OTHER)):
    for key in keys:
        a, f = advanced.key_column(key), fresh.key_column(key)
        if f is None:
            assert a is None
            continue
        assert a.values == f.values
        assert a.merged == f.merged
        assert a.batch_counts == f.batch_counts
    assert advanced.vertices(3, DIR_OUT) == fresh.vertices(3, DIR_OUT)


def test_slide_forward_equals_fresh_build():
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    view.key_column(KEY)  # materialize before the slide
    view.key_column(OTHER)
    view.vertices(3, DIR_OUT)
    view.advance(2, 3)  # drop batch 1, append batch 3
    fresh = ColumnarSlice(index, store)
    fresh.advance(2, 3)
    assert_same_view(view, fresh)
    assert view.key_column(KEY).values == [12, 13, 14]


def test_drop_only_and_extend_only_slides():
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    view.key_column(KEY)
    view.advance(2, 2)  # pure drop
    fresh = ColumnarSlice(index, store)
    fresh.advance(2, 2)
    assert_same_view(view, fresh)
    view.advance(2, 3)  # pure extend
    fresh2 = ColumnarSlice(index, store)
    fresh2.advance(2, 3)
    assert_same_view(view, fresh2)


def test_merged_spans_recoalesce_across_slides():
    # Batches 1 and 2 are contiguous in KEY's value list: the fresh view
    # merges them into one span, and the delta path must end with the
    # same geometry after dropping/appending.
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    assert view.key_column(KEY).merged == [(0, 0, 5)]
    view.advance(2, 3)
    assert view.key_column(KEY).merged == [(0, 3, 3)]


def test_disjoint_advance_resets_and_counts_evictions():
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    view.key_column(KEY)
    view.vertices(3, DIR_OUT)
    assert view.delta_misses == 1  # first materialization
    view.advance(2, 3)
    assert view.delta_hits == 1
    cached = view.entries
    assert cached > 0
    # A range sharing no slice with the previous one rebuilds from
    # scratch: every cached column is evicted and the delta misses.
    view.advance(10, 12)
    assert view.delta_misses == 2
    assert view.evictions >= cached
    assert view.key_column(KEY) is None  # nothing in that range


def test_hit_miss_counters_and_memo_invalidation():
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    col = view.key_column(KEY)
    assert (view.hits, view.misses) == (0, 1)
    assert view.key_column(KEY) is col
    assert view.hits == 1
    # Batch 1 holds a duplicate (10): not distinct, and the verdict and
    # set are memoized on the column.
    assert col.values == [10, 11, 10, 12, 13]
    assert not col.is_distinct()
    assert col.value_set() == {10, 11, 12, 13}
    view.advance(2, 3)
    # Same column object survives the slide; memos must be recomputed
    # for the new values.
    assert view.key_column(KEY) is col
    assert col.is_distinct()
    assert col.value_set() == {12, 13, 14}


def test_cached_absent_key_invalidated_by_extension():
    index, store = build_fixture()
    absent_until_3 = make_key(9, 3, DIR_OUT)
    store.shards[0]._values[absent_until_3] = [30]
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    assert view.key_column(absent_until_3) is None  # cached absent
    index.append_slice(make_slice(4, [(0, (absent_until_3, 0, 1))]))
    view.advance(2, 4)
    col = view.key_column(absent_until_3)
    assert col is not None and col.values == [30]


def test_pure_drop_evicts_the_dropped_batch_vertices():
    index, store = build_fixture()
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    assert view.vertices(3, DIR_OUT) == ([7, 8], 3)
    view.advance(2, 2)  # drop batch 1, append nothing
    fresh = ColumnarSlice(index, store).advance(2, 2)
    assert view.vertices(3, DIR_OUT) == fresh.vertices(3, DIR_OUT)
    assert view.vertices(3, DIR_OUT)[1] == 2


def test_absent_key_lookups_count_as_hits_once_cached():
    index, store = build_fixture()
    missing = make_key(99, 3, DIR_OUT)
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    # First ask walks the window's slices and caches the absence (a miss);
    # every later ask is served from the cache (a hit), same as a
    # present key — absent keys are first-class cache entries.
    assert view.key_column(missing) is None
    assert (view.hits, view.misses) == (0, 1)
    assert view.entries == 1
    assert view.key_column(missing) is None
    assert (view.hits, view.misses) == (1, 1)
    # The invalidation paths must account for them too: a reset evicts
    # the cached absence along with everything else.
    view.key_column(KEY)
    before = view.entries
    view.advance(10, 12)
    assert view.evictions >= before
    assert view.entries == 0


def test_absent_key_invalidation_recounts_as_miss():
    index, store = build_fixture()
    late = make_key(9, 3, DIR_OUT)
    store.shards[0]._values[late] = [30]
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    assert view.key_column(late) is None
    hits, misses = view.hits, view.misses
    index.append_slice(make_slice(4, [(0, (late, 0, 1))]))
    view.advance(2, 4)
    # The extension dropped the stale absence without counting an
    # eviction-by-expiry; the re-materialization is a fresh miss.
    assert view.key_column(late).values == [30]
    assert (view.hits, view.misses) == (hits, misses + 1)


def test_counters_flow_into_cache_stats():
    """The columnar window views' counters reach the stats dashboard;
    assert the full path end to end on a real engine run."""
    from core.test_engine import QC, build_engine
    from repro.core.stats import collect_stats

    engine = build_engine()
    engine.register_continuous(QC)
    engine.run_until(6_000)

    views = [view for handle in engine.continuous.queries.values()
             for view in handle.window_views.values()]
    assert views, "the run must have materialized window views"
    hits = sum(view.hits for view in views)
    misses = sum(view.misses for view in views)
    evictions = sum(view.evictions for view in views)
    delta_hits = sum(view.delta_hits for view in views)
    assert misses > 0 and delta_hits > 0
    assert evictions > 0, "sliding windows must have evicted columns"

    caches = collect_stats(engine).caches
    assert caches.window_hits == hits
    assert caches.window_misses == misses
    assert caches.window_evictions == evictions
    assert caches.window_delta_hits == delta_hits
    assert 0.0 <= caches.window_hit_rate <= 1.0
    assert "evictions" in collect_stats(engine).format()


# -- property: every advanced view equals a brute-force rebuild -----------

_POOL = [make_key(vid, eid, d) for vid in (1, 2, 3) for eid in (1, 2)
         for d in (DIR_IN, DIR_OUT)]
_GROUPS = [(eid, d) for eid in (1, 2) for d in (DIR_IN, DIR_OUT)]

#: One span of a batch: (pool index, owner, entries written first by a
#: write the stream index does not see, span length).
_SPAN = st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 1),
                  st.integers(0, 1), st.integers(1, 3))
#: One step of the sequence, in this order:
#: - maybe append a batch (batch-number gap 0-2, then its spans);
#: - maybe collect up to 0-2 batches past the view's first one (a
#:   window still being read is not collected, an abandoned one may be);
#: - advance the view's first batch by 0-2 (never below the collection
#:   frontier) and its last by 0-2 (never past the last appended one);
#: - read the key and vertex columns the two masks pick.
_STEP = st.tuples(
    st.one_of(st.none(), st.tuples(
        st.integers(0, 2),
        st.lists(_SPAN, max_size=6, unique_by=itemgetter(0)))),
    st.one_of(st.none(), st.integers(0, 2)),
    st.integers(0, 2), st.integers(0, 2),
    st.integers(0, (1 << len(_POOL)) - 1),
    st.integers(0, (1 << len(_GROUPS)) - 1))


def _masked(items, mask):
    return [item for i, item in enumerate(items) if mask >> i & 1]


class _TwoShardStore:
    def __init__(self):
        self.shards = [_FakeShard({}), _FakeShard({})]


def _brute_column(index, store, first, last, key):
    """``(values, merged, batch_counts)`` of ``key`` re-read from the
    live slices in range, or None when none holds it."""
    values, merged, counts = [], [], []
    for piece in index.slices_in(first, last):
        if key not in piece.entries:
            continue
        owner, offset, length = piece.entries[key]
        values += store.shards[owner]._values[key][offset:offset + length]
        if merged and merged[-1][0] == owner \
                and merged[-1][1] + merged[-1][2] == offset:
            merged[-1] = (owner, merged[-1][1], merged[-1][2] + length)
        else:
            merged.append((owner, offset, length))
        counts.append((piece.batch_no, length))
    return (values, merged, counts) if counts else None


def _brute_vertices(index, first, last, eid, d):
    """Start column of ``(eid, d)``: each slice's vertex set rebuilt from
    its entries, deduplicated in first-occurrence order, plus the summed
    set sizes."""
    out, scanned = {}, 0
    for piece in index.slices_in(first, last):
        members = set()
        for key in piece.entries:
            vid, key_eid, key_d = split_key(key)
            if (key_eid, key_d) == (eid, d):
                members.add(vid)
        scanned += len(members)
        for vid in members:
            out.setdefault(vid)
    return list(out), scanned


@settings(deadline=None, max_examples=150)
@given(st.lists(_STEP, min_size=1, max_size=20))
def test_advanced_view_matches_brute_force_rebuild(steps):
    """Random appends, collections and advances of one long-lived view:
    after every advance, each key column and vertex column asked for
    (cached or not) equals a rebuild from ``index.slices_in`` — values,
    merged spans and batch counts; vertex order and scanned count."""
    index = StreamIndex("S")
    store = _TwoShardStore()
    view = ColumnarSlice(index, store)
    last_batch = 0
    for batch, collect, drop, extend, key_mask, group_mask in steps:
        if batch is not None:
            gap, spans = batch
            last_batch += 1 + gap
            piece = IndexSlice(last_batch)
            for slot, owner, unseen, length in spans:
                key = _POOL[slot]
                held = store.shards[owner]._values.setdefault(key, [])
                held += [-1] * unseen
                offset = len(held)
                held += [last_batch * 100 + slot * 10 + i
                         for i in range(length)]
                piece.add_batch_spans(owner, [(key, offset, length)])
            index.append_slice(piece)
        if collect is not None:
            index.collect(view.first_batch + collect)
        first = max(index.collected_before, view.first_batch + drop)
        last = min(max(first, view.last_batch) + extend, last_batch)
        if last < first:
            continue
        view.advance(first, last)
        assert view.probes == len(index.slices_in(first, last))
        for key in _masked(_POOL, key_mask):
            col = view.key_column(key)
            expected = _brute_column(index, store, first, last, key)
            if expected is None:
                assert col is None
            else:
                assert (col.values, col.merged, col.batch_counts) \
                    == expected
        for eid, d in _masked(_GROUPS, group_mask):
            assert view.vertices(eid, d) == \
                _brute_vertices(index, first, last, eid, d)
