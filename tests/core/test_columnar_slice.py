"""ColumnarSlice: incremental window deltas vs fresh materialization.

The columnar view must be a pure cache: after any sequence of advances,
every column it serves must equal what a fresh view built directly at
the final range would produce — same values, same merged-span geometry
(the simulated-charge input), same vertex columns.  The counters the
stats dashboard surfaces (hits/misses, delta hits/misses, evictions) are
checked alongside.
"""

from repro.core.stream_index import ColumnarSlice, IndexSlice, StreamIndex
from repro.rdf.ids import DIR_OUT, make_key

KEY = make_key(7, 3, DIR_OUT)
OTHER = make_key(8, 3, DIR_OUT)


class _FakeShard:
    def __init__(self, values):
        self._values = values

    def lookup_span(self, key, offset, length, meter=None, category="store"):
        return self._values[key][offset:offset + length]


class _FakeStore:
    def __init__(self, values):
        self.shards = [_FakeShard(values)]


def make_slice(batch_no, spans):
    piece = IndexSlice(batch_no)
    for owner, span in spans:
        piece.add_batch_spans(owner, [span], span[0] & 1)
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


def test_absent_key_lookups_count_as_hits_once_cached():
    index, store = build_fixture()
    missing = make_key(99, 3, DIR_OUT)
    view = ColumnarSlice(index, store)
    view.advance(1, 2)
    # First ask walks the postings and caches the absence (a miss);
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


def test_counters_flow_into_cache_stats_and_obs_metrics():
    """The PR that added the columnar window views wired their counters
    into the stats dashboard and the metrics registry; assert the full
    path end to end on a real engine run."""
    from core.test_engine import QC, build_engine
    from repro.core.stats import collect_stats
    from repro.obs.metrics import collect_metrics

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

    counters = collect_metrics(engine).snapshot()["counters"]
    assert counters["window_view_hits"] == hits
    assert counters["window_view_misses"] == misses
    assert counters["window_view_evictions"] == evictions
    assert counters["window_delta_hits"] == delta_hits
