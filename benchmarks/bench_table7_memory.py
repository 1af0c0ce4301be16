"""Table 7: memory usage of raw streaming data vs the stream index.

Runs LSBench for one simulated minute-equivalent and compares, per stream,
the raw bytes that arrived against the bytes held by (replica-weighted)
stream indexes.  Shape assertions: the index is a small fraction of the
raw data overall; the like streams (many entries appended to few keys ->
coalesced spans) have much smaller index ratios than the post streams
(each post is a fresh key); GPS, being timing-only, has no index at all.
"""

from repro.bench.harness import build_wukongs, format_table

from common import PAPER_TABLE7, large_lsbench

STREAMS = ("PO", "PO_L", "PH", "PH_L", "GPS")
DURATION_MS = 6_000


def run_experiment():
    bench = large_lsbench()
    # Keep GC off the measurement horizon, and register one consumer per
    # indexed stream so each index has exactly one replica.
    engine = build_wukongs(bench, num_nodes=8, duration_ms=DURATION_MS,
                           gc_every_ticks=0)
    for name in ("L1", "L3", "L6"):
        engine.register_continuous(bench.continuous_query(name))
    engine.run_until(DURATION_MS)
    out = {}
    for stream in STREAMS:
        out[stream] = {
            "data": engine.raw_stream_bytes(stream),
            "index": engine.stream_index_bytes(stream),
        }
    return out


def test_table7_memory(benchmark, report):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    total_data = total_index = 0
    for stream in STREAMS:
        data = measured[stream]["data"]
        index = measured[stream]["index"]
        total_data += data
        total_index += index
        ratio = f"{index / data:.1%}" if data and index else "-"
        paper_ratio = "-"
        if PAPER_TABLE7["index"][stream] is not None:
            paper_ratio = (f"{PAPER_TABLE7['index'][stream] / PAPER_TABLE7['data'][stream]:.1%}")
        rows.append([stream, data / 1024.0,
                     (index / 1024.0) if index else None, ratio,
                     paper_ratio])
    rows.append(["Total", total_data / 1024.0, total_index / 1024.0,
                 f"{total_index / total_data:.1%}", "9.5%"])
    report(format_table(
        "Table 7: raw stream data vs stream index (KiB over the run)",
        ["Stream", "data KiB", "index KiB", "ratio", "(paper ratio)"],
        rows,
        note="paper reports MB/min at full rate; ratios are the "
             "comparable shape"))

    # GPS (timing-only) has no stream index.
    assert measured["GPS"]["index"] == 0
    # The index is much smaller than the raw data overall.
    assert total_index < 0.6 * total_data
    # Like streams coalesce into fewer index entries per byte than post
    # streams (the paper's PO 46.3% vs PO-L 1.6% contrast).
    po_ratio = measured["PO"]["index"] / measured["PO"]["data"]
    pol_ratio = measured["PO_L"]["index"] / measured["PO_L"]["data"]
    assert pol_ratio < po_ratio
