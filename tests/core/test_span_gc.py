"""Stream-index spans stay invisible to the cyclic garbage collector.

Index slices live for a whole window, so anything the collector tracks in
them survives into the old generation and is paid for by every full
collection.  Every span the index holds — a slice entry, a window
column's merged geometry and per-batch counts — is therefore a tuple of
ints only, which CPython untracks at its first young collection.  A slice also
holds exactly one span per key: one column write per key per batch.
"""

import gc

import pytest

from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.injector import Injector
from repro.rdf.ids import DIR_IN, DIR_OUT, make_key
from repro.streams.source import StreamSource

DURATION_MS = 1_500
INTERVAL_MS = 100


def build(num_nodes, threads):
    bench = LSBench(LSBenchConfig(num_users=200))
    config = EngineConfig(num_nodes=num_nodes, injector_threads=threads,
                          batch_interval_ms=INTERVAL_MS)
    engine = WukongSEngine(schemas=bench.schemas(), config=config)
    engine.load_static(bench.static_triples())
    for name, tuples in bench.generate_streams(DURATION_MS).items():
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(tuples, 0, INTERVAL_MS)
        engine.attach_source(source)
    engine.register_continuous(bench.continuous_query("L5"))
    return engine


@pytest.mark.parametrize("num_nodes,threads", [(1, 1), (2, 2)])
def test_index_spans_untracked_one_per_key(monkeypatch, num_nodes,
                                           threads):
    # The keys each batch writes, read off the dispatched halves before
    # the store or the index sees them.
    written = {}
    inject = Injector.inject

    def recording_inject(self, node_batch, sn, index_slice, meter=None):
        keys = written.setdefault(
            (node_batch.stream, node_batch.batch_no), set())
        out, into = node_batch.out_timeless, node_batch.in_timeless
        keys.update(make_key(s, p, DIR_OUT) for s, p in zip(out.s, out.p))
        keys.update(make_key(o, p, DIR_IN) for o, p in zip(into.o, into.p))
        inject(self, node_batch, sn, index_slice, meter=meter)

    monkeypatch.setattr(Injector, "inject", recording_inject)
    engine = build(num_nodes, threads)
    engine.run_until(DURATION_MS)
    gc.collect(0)

    slices = 0
    for stream in engine.registry.streams:
        index = engine.registry.index(stream)
        for piece in index._slices:
            slices += 1
            keys = written[(stream, piece.batch_no)]
            assert piece.num_entries == len(keys)
            assert set(piece.entries) == keys
            assert not any(gc.is_tracked(span)
                           for span in piece.entries.values())
    assert slices > 0

    columns = [col
               for handle in engine.continuous.queries.values()
               for view in handle.window_views.values()
               for col in view._columns.values() if col is not None]
    assert columns, "the run must have materialized window columns"
    assert not any(gc.is_tracked(span)
                   for col in columns for span in col.merged)
    assert not any(gc.is_tracked(count)
                   for col in columns for count in col.batch_counts)
