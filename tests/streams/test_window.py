"""Tests for window arithmetic."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.errors import StreamError
from repro.rdf.terms import TimedTuple, Triple
from repro.sparql.ast import WindowSpec
from repro.streams.stream import batch_tuples
from repro.streams.window import (WindowPlanner, expiry_floor_ms,
                                  next_execution_ms)


def planner(range_ms=1000, step_ms=100, interval=100):
    return WindowPlanner(WindowSpec(range_ms, step_ms), interval)


def test_last_batch_needed():
    p = planner()
    assert p.last_batch_needed(0) == 0
    assert p.last_batch_needed(99) == 0
    assert p.last_batch_needed(100) == 1
    assert p.last_batch_needed(1000) == 10


def test_batch_range_full_window():
    p = planner(range_ms=500)
    first, last = p.batch_range(1000)
    assert (first, last) == (6, 10)  # batches covering [500, 1000)


def test_batch_range_clamped_at_stream_start():
    p = planner(range_ms=2000)
    first, last = p.batch_range(1000)
    assert (first, last) == (1, 10)


def test_batch_range_empty_before_start():
    p = planner()
    first, last = p.batch_range(0)
    assert first > last


def test_step_must_align_with_interval():
    with pytest.raises(StreamError):
        WindowPlanner(WindowSpec(1000, 150), 100)


def test_next_execution_times():
    assert next_execution_ms(0, 100, 0) == 100
    assert next_execution_ms(0, 100, 50) == 100
    assert next_execution_ms(0, 100, 100) == 100
    assert next_execution_ms(0, 100, 101) == 200
    assert next_execution_ms(500, 1000, 2600) == 3500


def test_batch_range_empty_windows_first_exceeds_last():
    # Close exactly at stream start: nothing has been delivered.
    p = planner()
    first, last = p.batch_range(0)
    assert first > last
    # Mid-first-batch close: batch 1 has not closed its interval yet.
    first, last = p.batch_range(50)
    assert first > last
    assert p.batch_range(100) == (1, 1)


def test_batch_range_step_equals_batch_interval_boundaries():
    # STEP == batch interval: consecutive closes slide by exactly one
    # batch — drop one expired batch, append one newly closed batch.
    p = planner(range_ms=1000, step_ms=100, interval=100)
    previous = None
    for close in range(1000, 2100, 100):
        first, last = p.batch_range(close)
        assert last - first + 1 == 10  # full 10-batch window
        if previous is not None:
            assert (first, last) == (previous[0] + 1, previous[1] + 1)
        previous = (first, last)


def test_batch_range_slide_overlap_is_delta_reusable():
    # RANGE 1000 STEP 300 over 100ms batches: each slide drops 3
    # batches and appends 3 — the overlap a delta-maintained window
    # view retains between closes.
    p = planner(range_ms=1000, step_ms=300)
    f1, l1 = p.batch_range(2000)
    f2, l2 = p.batch_range(2300)
    assert (f2 - f1, l2 - l1) == (3, 3)
    assert f2 <= l1  # overlapping, so the delta path applies


def test_expiry_floor():
    windows = {"A": WindowSpec(1000, 100), "B": WindowSpec(5000, 100)}
    assert expiry_floor_ms(10_000, windows) == 5_000
    assert expiry_floor_ms(10_000, {}) == 10_000


def test_span_at():
    p = planner(range_ms=300)
    assert p.span_at(1000) == (700, 1000)


# -- the batch geometry against a brute-force oracle ----------------------

@settings(max_examples=300, deadline=None)
@given(interval=st.integers(1, 500), steps=st.integers(1, 8),
       range_ms=st.integers(1, 5_000), close_ms=st.integers(0, 20_000))
def test_batch_range_matches_a_brute_force_scan(interval, steps, range_ms,
                                                close_ms):
    p = WindowPlanner(WindowSpec(range_ms, steps * interval), interval)
    # Batch k spans [(k-1)*i, k*i); a close needs every batch that has
    # ended by then and overlaps [close - range, close).
    expected = [k for k in range(1, close_ms // interval + 2)
                if k * interval <= close_ms
                and k * interval > close_ms - range_ms
                and (k - 1) * interval < close_ms]
    first, last = p.batch_range(close_ms)
    assert list(range(first, last + 1)) == expected


@settings(max_examples=200, deadline=None)
@given(interval=st.integers(1, 500),
       stamps=st.lists(st.integers(0, 10_000), max_size=40))
def test_batch_tuples_numbers_batches_by_timestamp(interval, stamps):
    tuples = [TimedTuple(Triple("s", "p", f"o{n}"), ts)
              for n, ts in enumerate(sorted(stamps))]
    batches = batch_tuples("S", tuples, 0, interval)
    assert [b.batch_no for b in batches] == list(range(1, len(batches) + 1))
    for batch in batches:
        assert (batch.start_ms, batch.end_ms) == \
            ((batch.batch_no - 1) * interval, batch.batch_no * interval)
        for tup in batch.tuples:
            assert batch.batch_no == tup.timestamp_ms // interval + 1
    assert sum(len(b) for b in batches) == len(tuples)
