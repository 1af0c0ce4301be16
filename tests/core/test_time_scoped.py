"""Tests for time-scoped one-shot queries (the footnote-10 extension)."""

import pytest

from repro.errors import StoreError, StreamError
from repro.streams.window import batch_span

from core.test_engine import build_engine, names

TIME_QUERY = """
SELECT ?U ?T
FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?U po ?T } }
"""

JOINED_QUERY = """
SELECT ?U ?F ?T
FROM Tweet_Stream [RANGE 1s STEP 1s]
FROM X-Lab
WHERE {
    GRAPH Tweet_Stream { ?U po ?T }
    GRAPH X-Lab { ?U fo ?F }
}
"""


@pytest.fixture
def engine():
    # Disable periodic GC so history stays queryable in most tests.
    eng = build_engine(gc_every_ticks=0)
    eng.run_until(10_000)
    return eng


def test_scope_selects_historical_interval(engine):
    # Tweets: T-15 @2200, T-16 @5100, T-17 @8100.
    early = engine.oneshot_time_scoped(TIME_QUERY, 2_000, 3_000)
    assert names(engine, early.result.rows) == [("Logan", "T-15")]
    middle = engine.oneshot_time_scoped(TIME_QUERY, 5_000, 6_000)
    assert names(engine, middle.result.rows) == [("Erik", "T-16")]
    everything = engine.oneshot_time_scoped(TIME_QUERY, 0, 10_000)
    assert len(everything.result.rows) == 3


def test_scope_boundaries_are_batch_aligned(engine):
    # [2000, 9000) covers T-15, T-16 and T-17 (batches 3..9).
    record = engine.oneshot_time_scoped(TIME_QUERY, 2_000, 9_000)
    assert len(record.result.rows) == 3
    # [3000, 8000) excludes T-15 (batch 3) and T-17 (batch 9).
    record = engine.oneshot_time_scoped(TIME_QUERY, 3_000, 8_000)
    assert names(engine, record.result.rows) == [("Erik", "T-16")]


def test_joins_with_stored_data(engine):
    record = engine.oneshot_time_scoped(JOINED_QUERY, 2_000, 3_000)
    assert names(engine, record.result.rows) == [("Logan", "Erik", "T-15")]


def test_empty_scope_rejected(engine):
    with pytest.raises(StoreError):
        engine.oneshot_time_scoped(TIME_QUERY, 3_000, 3_000)


@pytest.mark.parametrize("home_node", [-1, 2, 5])
def test_phantom_home_node_refused(engine, home_node):
    with pytest.raises(StoreError, match="no such home node"):
        engine.oneshot_time_scoped(TIME_QUERY, 2_000, 3_000,
                                   home_node=home_node)


def test_window_keys_on_the_non_home_shard(engine):
    """Two nodes; Logan (vid 1) and his tweet key live on node 1.  Read
    from node 1 the window is all local; read from node 0 it costs
    exactly one remote read — his two window entries (T-15 in batch 3,
    T-17 in batch 9) sit end to end in his value list, so they are one
    fat pointer.  Charges worked out by hand from the cost model."""
    assert engine.cluster.owner_of(engine.strings.lookup_entity("Logan")) == 1
    query = ("SELECT ?T FROM Tweet_Stream [RANGE 1s STEP 1s] "
             "WHERE { GRAPH Tweet_Stream { Logan po ?T } }")
    cost = engine.config.cost
    expected = {
        "dispatch": cost.task_dispatch_ns * 1000,
        # Only batches 3, 6 and 9 carried tweets: three live slices to
        # probe, then a scan of the two entries.
        "store": (3 * cost.index_probe_ns + 2 * cost.scan_entry_ns) * 1000,
        "explore": 2 * cost.binding_ns * 1000,
        "project": 2 * cost.binding_ns * 1000,
    }
    local = engine.oneshot_time_scoped(query, 0, 10_000, home_node=1)
    assert names(engine, local.result.rows) == [("T-15",), ("T-17",)]
    assert local.meter.breakdown_ps == expected
    remote = engine.oneshot_time_scoped(query, 0, 10_000, home_node=0)
    assert remote.result.rows == local.result.rows
    expected["network"] = cost.rdma_read_ns * 1000 \
        + (16 + 8 * 2) * cost.rdma_byte_ps
    assert remote.meter.breakdown_ps == expected
    assert remote.meter.ps == sum(expected.values())


def test_pure_stored_query_rejected(engine):
    with pytest.raises(StoreError):
        engine.oneshot_time_scoped("SELECT ?x WHERE { Logan po ?x }",
                                   0, 1_000)


def test_unknown_stream_rejected(engine):
    with pytest.raises(StreamError):
        engine.oneshot_time_scoped(
            "SELECT ?x FROM Ghost [RANGE 1s STEP 1s] WHERE "
            "{ GRAPH Ghost { ?x p o } }", 0, 1_000)


def test_collected_history_raises():
    engine = build_engine(gc_every_ticks=1, gc_retention_ms=2_000)
    engine.run_until(10_000)
    with pytest.raises(StoreError):
        engine.oneshot_time_scoped(TIME_QUERY, 1_000, 3_000)
    # Recent history is still there.
    record = engine.oneshot_time_scoped(TIME_QUERY, 8_000, 10_000)
    assert names(engine, record.result.rows) == [("Logan", "T-17")]


def test_scope_starting_exactly_at_gc_frontier_succeeds():
    # A scope whose first batch equals ``collected_before`` reads the
    # oldest retained batch: the boundary itself is still queryable.
    engine = build_engine(gc_every_ticks=1, gc_retention_ms=2_000)
    engine.run_until(10_000)
    cfg = engine.config
    frontier = engine.registry.index("Tweet_Stream").collected_before
    assert frontier > 1  # GC must actually have collected something
    start_ms, _ = batch_span(frontier, cfg.batch_interval_ms)
    record = engine.oneshot_time_scoped(
        TIME_QUERY, start_ms, start_ms + cfg.batch_interval_ms)
    assert record.result.rows is not None  # executed without StoreError


def test_scope_one_batch_below_gc_frontier_raises():
    # Shifting the scope down a single batch crosses the GC frontier and
    # must fail loudly instead of silently returning partial history.
    engine = build_engine(gc_every_ticks=1, gc_retention_ms=2_000)
    engine.run_until(10_000)
    cfg = engine.config
    frontier = engine.registry.index("Tweet_Stream").collected_before
    assert frontier > 1
    boundary_ms, _ = batch_span(frontier, cfg.batch_interval_ms)
    with pytest.raises(StoreError, match="garbage-collected"):
        engine.oneshot_time_scoped(
            TIME_QUERY, boundary_ms - cfg.batch_interval_ms,
            boundary_ms + cfg.batch_interval_ms)
