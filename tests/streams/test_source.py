"""Tests for replayable stream sources (upstream backup)."""

from bisect import bisect_left

import pytest

from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import StreamError
from repro.rdf.terms import TimedColumns
from repro.streams.source import StreamSource
from repro.streams.stream import StreamBatch, StreamSchema
from streams.helpers import timed


def make_source(n_batches=5):
    source = StreamSource(StreamSchema("S"))
    for k in range(1, n_batches + 1):
        source.queue(StreamBatch("S", k, (k - 1) * 100, k * 100))
    return source


def test_batches_delivered_in_order():
    source = make_source(3)
    delivered = [b.batch_no for b in source.drain()]
    assert delivered == [1, 2, 3]
    assert source.next_batch() is None


def test_wrong_stream_rejected():
    source = StreamSource(StreamSchema("S"))
    with pytest.raises(StreamError):
        source.queue(StreamBatch("other", 1, 0, 100))


def test_out_of_order_queue_rejected():
    source = StreamSource(StreamSchema("S"))
    source.queue(StreamBatch("S", 1, 0, 100))
    with pytest.raises(StreamError):
        source.queue(StreamBatch("S", 3, 200, 300))


def test_delivered_batches_are_backed_up():
    source = make_source(4)
    for _ in range(3):
        source.next_batch()
    assert source.backup_size == 3
    assert [b.batch_no for b in source.replay(1)] == [2, 3]


def test_ack_trims_backup():
    source = make_source(4)
    list(source.drain())
    source.ack(2)
    assert source.backup_size == 2
    assert [b.batch_no for b in source.replay(2)] == [3, 4]


def test_replay_below_ack_rejected():
    source = make_source(4)
    list(source.drain())
    source.ack(2)
    with pytest.raises(StreamError):
        source.replay(1)


def test_ack_cannot_regress():
    source = make_source(3)
    list(source.drain())
    source.ack(2)
    with pytest.raises(StreamError):
        source.ack(1)


def test_queue_tuples_batches_automatically():
    source = StreamSource(StreamSchema("S"))
    tuples = timed([("a", "p", "b", 50), ("c", "p", "d", 250)])
    n = source.queue_tuples(tuples, start_ms=0, interval_ms=100)
    assert n == 3
    assert [len(b) for b in source.drain()] == [1, 0, 1]


def test_queued_columns_are_never_mutated():
    """A stream source holds the generated columns themselves, and each
    delivered batch shares its ``ts`` slice with the encoded columns the
    engine keeps: after a full run with a standing query, checkpoints and
    collection, the queued columns and every batch still buffered for
    replay equal copies taken before the run."""
    bench = LSBench(LSBenchConfig.tiny())
    streams = bench.generate_streams(3_000)
    before = {name: TimedColumns(*map(list, (c.s, c.p, c.o, c.ts)))
              for name, c in streams.items()}
    engine = WukongSEngine(
        schemas=bench.schemas(),
        config=EngineConfig(num_nodes=2, fault_tolerance=True,
                            checkpoint_interval_ms=2_000,
                            gc_every_ticks=2))
    engine.load_static(bench.static_triples())
    sources = {}
    for name, columns in streams.items():
        sources[name] = StreamSource(engine.schemas[name])
        sources[name].queue_tuples(columns, 0, 100)
        engine.attach_source(sources[name])
    query = engine.register_continuous(bench.continuous_query("L5"))
    engine.run_until(3_000)
    assert query.executions
    assert streams == before
    replayed = 0
    for name, source in sources.items():
        assert not source.has_pending
        for batch in source.replay(source.acked_through):
            lo, hi = bisect_left(before[name].ts, batch.start_ms), \
                bisect_left(before[name].ts, batch.end_ms)
            assert batch.tuples == before[name][lo:hi]
            replayed += len(batch)
    assert replayed
