"""The one cut of a stream into batches, against a per-tuple reference.

``StreamSource.queue_tuples`` (batches sliced lazily, one per
``next_batch``) and ``batch_tuples`` (every batch at once) share one cut
over a stream's ``ts`` column.  Both are checked here against a
brute-force numbering written in this file over the stream's rows —
batch ``(ts - start) // interval + 1`` for every tuple, every batch from
#1 to the last one present — and every refusal against the exact message
a per-tuple loop gives.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streams.source import StreamSource
from repro.streams.stream import StreamBatch, StreamSchema, batch_tuples
from streams.helpers import timed


def numbered(stamps):
    return timed([(f"s{i}", "p", "o", ts) for i, ts in enumerate(stamps)])


def spelled(row):
    """A row as a refusal names it."""
    (s, p, o), ts = row
    return f"<{s}, {p}, {o}> @{ts}"


def brute_cut(tuples, start_ms, interval_ms):
    """``(batch_no, start, end, rows)`` per batch, one row at a time."""
    rows = list(tuples)
    if not rows:
        return []
    last = (rows[-1][1] - start_ms) // interval_ms + 1
    members = [[] for _ in range(last)]
    for row in rows:
        members[(row[1] - start_ms) // interval_ms].append(row)
    return [(k, start_ms + (k - 1) * interval_ms, start_ms + k * interval_ms,
             members[k - 1]) for k in range(1, last + 1)]


def brute_refusal(tuples, start_ms, stream="S"):
    """The message of the first row a per-tuple loop refuses, or None."""
    previous = None
    for row in tuples:
        ts = row[1]
        if ts < start_ms:
            return f"tuple {spelled(row)} precedes stream start {start_ms}"
        if previous is not None and ts < previous:
            return (f"out-of-order timestamp: {ts} after "
                    f"{previous} (stream {stream})")
        previous = ts
    return None


def shape(batch):
    return (batch.batch_no, batch.start_ms, batch.end_ms, list(batch.tuples))


@st.composite
def cuts(draw):
    """Non-decreasing stamps from ``start_ms`` on: ties (step 0), steps
    inside one interval, and jumps of whole intervals, which land ties
    on batch boundaries and leave empty batches between."""
    start_ms = draw(st.integers(0, 1_000))
    interval_ms = draw(st.integers(1, 40))
    step = st.one_of(st.just(0), st.integers(1, interval_ms),
                     st.integers(1, 4).map(lambda k: k * interval_ms))
    stamps, ts = [], start_ms + draw(step)
    for gap in draw(st.lists(step, max_size=30)):
        stamps.append(ts)
        ts += gap
    return numbered(stamps), start_ms, interval_ms


@settings(max_examples=300, deadline=None)
@given(cut=cuts())
def test_lazy_and_eager_cuts_match_per_tuple_numbering(cut):
    tuples, start_ms, interval_ms = cut
    expected = brute_cut(tuples, start_ms, interval_ms)
    eager = batch_tuples("S", tuples, start_ms, interval_ms)
    assert list(map(shape, eager)) == expected
    source = StreamSource(StreamSchema("S"))
    assert source.queue_tuples(tuples, start_ms, interval_ms) == \
        len(expected)
    assert source.has_pending == bool(expected)
    assert list(map(shape, source.drain())) == expected
    assert not source.has_pending and source.next_batch() is None
    assert source.backup_size == len(expected)


@settings(max_examples=300, deadline=None)
@given(cut=cuts(), data=st.data())
def test_disorder_refused_with_the_per_tuple_message(cut, data):
    """One stamp moved below its predecessor or the stream start: both
    cuts refuse with the first bad tuple's message and queue nothing."""
    tuples, start_ms, interval_ms = cut
    if not tuples:
        return
    stamps = list(tuples.ts)
    i = data.draw(st.integers(0, len(stamps) - 1))
    stamps[i] -= data.draw(st.integers(0, stamps[i] + 1))
    tuples = numbered(stamps)
    message = brute_refusal(tuples, start_ms)
    if message is None:
        assert len(batch_tuples("S", tuples, start_ms, interval_ms)) == \
            len(brute_cut(tuples, start_ms, interval_ms))
        return
    with pytest.raises(StreamError) as eager:
        batch_tuples("S", tuples, start_ms, interval_ms)
    assert str(eager.value) == message
    source = StreamSource(StreamSchema("S"))
    with pytest.raises(StreamError) as lazy:
        source.queue_tuples(tuples, start_ms, interval_ms)
    assert str(lazy.value) == message
    assert not source.has_pending


@settings(max_examples=200, deadline=None)
@given(stamps=st.lists(st.integers(-5, 25), max_size=12),
       start_ms=st.integers(0, 10), width=st.integers(1, 10))
def test_batch_refuses_its_first_out_of_span_tuple(stamps, start_ms, width):
    tuples = numbered(stamps)
    end_ms = start_ms + width
    outside = [row for row in tuples if not start_ms <= row[1] < end_ms]
    if not outside:
        assert len(StreamBatch("S", 1, start_ms, end_ms, tuples)) == \
            len(tuples)
        return
    with pytest.raises(StreamError) as refused:
        StreamBatch("S", 1, start_ms, end_ms, tuples)
    assert str(refused.value) == (f"tuple {spelled(outside[0])} outside "
                                  f"batch interval [{start_ms}, {end_ms})")


class TestRefusalMessages:
    """Each refusal, spelled out."""

    def test_out_of_order(self):
        with pytest.raises(StreamError) as refused:
            batch_tuples("S", numbered([200, 100]), 0, 100)
        assert str(refused.value) == \
            "out-of-order timestamp: 100 after 200 (stream S)"

    def test_before_start(self):
        with pytest.raises(StreamError) as refused:
            StreamSource(StreamSchema("S")).queue_tuples(
                numbered([150, 90]), 100, 100)
        assert str(refused.value) == \
            "tuple <s1, p, o> @90 precedes stream start 100"

    @pytest.mark.parametrize("interval_ms", [0, -5])
    def test_non_positive_interval(self, interval_ms):
        for cut in (lambda: batch_tuples("S", numbered([]), 0, interval_ms),
                    lambda: StreamSource(StreamSchema("S")).queue_tuples(
                        numbered([1]), 0, interval_ms)):
            with pytest.raises(StreamError) as refused:
                cut()
            assert str(refused.value) == \
                f"batch interval must be positive: {interval_ms}"

    def test_queue_tuples_after_a_queued_batch(self):
        source = StreamSource(StreamSchema("S"))
        source.queue(StreamBatch("S", 1, 0, 100))
        with pytest.raises(StreamError) as refused:
            source.queue_tuples(numbered([250]), 0, 100)
        assert str(refused.value) == \
            "batches must be queued in order: got #1 after #1"
        assert source.queue_tuples(numbered([]), 0, 100) == 0  # no batch
        assert [b.batch_no for b in source.drain()] == [1]

    def test_queue_tuples_twice(self):
        source = StreamSource(StreamSchema("S"))
        assert source.queue_tuples(numbered([50, 250]), 0, 100) == 3
        with pytest.raises(StreamError) as refused:
            source.queue_tuples(numbered([350]), 0, 100)
        assert str(refused.value) == \
            "batches must be queued in order: got #1 after #3"

    def test_batch_out_of_span(self):
        with pytest.raises(StreamError) as refused:
            StreamBatch("S", 2, 100, 200, numbered([150, 200]))
        assert str(refused.value) == \
            "tuple <s1, p, o> @200 outside batch interval [100, 200)"


def test_batches_queued_after_the_cut_follow_it():
    source = StreamSource(StreamSchema("S"))
    source.queue_tuples(numbered([50, 150]), 0, 100)
    source.queue(StreamBatch("S", 3, 200, 300, numbered([250])))
    assert [(b.batch_no, len(b)) for b in source.drain()] == \
        [(1, 1), (2, 1), (3, 1)]


def _live_batches():
    return sum(isinstance(obj, StreamBatch) for obj in gc.get_objects())


def test_queueing_builds_no_batch():
    """A queued replay is the stream's columns and their offsets: the
    first batch object appears when the first batch is delivered."""
    source = StreamSource(StreamSchema("S"))
    tuples = numbered(range(0, 100_000, 10))  # 10 000 tuples, 1 000 batches
    gc.collect()
    before = _live_batches()
    assert source.queue_tuples(tuples, 0, 100) == 1_000
    assert _live_batches() == before
    first = source.next_batch()
    assert _live_batches() == before + 1
    assert shape(first) == (1, 0, 100, list(tuples[:10]))
