#!/bin/sh
# Tier-1 gate: the full test suite plus the repo benchmark's own checks.
#
# The suite is split so the fast tier stays fast: the serving battery
# (thousands of concurrent subscriptions; marked `serving`), the chaos
# suite (fault-injection equivalence; marked `chaos`), the adaptive
# re-planning suite (skew-inversion differentials; marked `adaptive`)
# and the temporal suite (SPARQL-T snapshot/interval queries; marked
# `temporal`) are the slowest blocks and run as their own stages.  They
# are followed by the columnar window-close suite (closes must match
# their frozen verdicts, including under a kill-during-close fault plan;
# DESIGN.md §4.9), a drift check of the three golden files
# (scripts/regen_goldens.py --check) and a gate that the retired
# row-kernel option, the retired charge-ordering machinery (the meter
# is an exact integer clock; charges need no ordering), the hand-rolled
# plan/parse caches and second FILTER compiler that
# repro.core.pipeline replaced, the retired adjacency-cache knobs, and
# the second family of expansion kernels (the temporal package's
# interval kernels and their compiled-plan class; a quintuple step is
# an executor step) with the two EngineConfig fields nothing set
# (one-shot contention, re-plan hysteresis), and the per-entry store
# writes and span-walking window reads (every write is one
# arrival-ordered column through ShardStore.append_column /
# DistributedStore.insert_columns, every window read a ColumnarSlice;
# the injector imports no private name from the store), and the second
# timing mechanism (per-phase wall-clock dicts threaded through the
# engines; nothing under src/repro reads the host clock — wall time is
# taken in benchmarks/e2e/probes.py, from outside), and the executor's
# second, row-shaped binding set with its own projection (every phase
# from seed to projection runs on _Batch), the per-key store reads
# (DistributedStore.neighbors_many reads one owner group at a time), and
# the ValueSpa[n] dataclass (a stream-index span is a plain
# (owner, offset, length) int tuple the collector untracks), the
# shard's versioned-key set and heap (compaction has no work list), and
# per-tuple objects anywhere in the library (the
# write path carries a batch as EncodedColumns, and the relational
# baselines buffer and scan their stream tables as EncodedColumns: no
# EncodedTupl[e] / encode_tupl[e] in src, scripts, tests, benchmarks or
# examples, nor the dead per-tuple helpers evict_befor[e] and
# StreamBatch.spli[t]), and cold start's second copy
# of recovery (the hand-written AST serializer query_to_dic[t] /
# query_from_dic[t] and the string-decoded log replay
# _decode_batch_lo[g]: a dump holds the durable log's own records,
# replayed by checkpoint.replay_log, and each continuous query's text),
# and the write path's per-write bookkeeping (the top-k degree sketch
# _TopKSketc[h] / TOPK_CAPACIT[Y] / bump_man[y] / topk_degre[e] — the
# planner reads exact degrees — and compaction's per-SN due-list
# ._du[e] — bounded scalarization is one frontier per shard, applied by
# the readers), and the settings nothing but tests set (the stream start
# stream_start_m[s] — batch #k spans [(k-1)*i, k*i), checked where
# batches enter — keep_snapshot[s], auto_pad_stream[s], the tracer's
# sample_ever[y], workers_per_nod[e], replan_cooldown_close[s],
# local_index_onl[y], the adaptor's relevant_predicate[s] and the serving
# layer's retry_polic[y]), and the per-key copies of a batch no window
# reads (the stream index's skip postings _key_posting[s] /
# _vertex_posting[s] / _posting_batc[h] — a window view probes its own
# slices — and the shard's index-member sets _index_member[s] /
# _update_statistic[s] — a vid joins its index vertex when its key is
# created), and the row round trip between executor and client (the
# window view's column_set[s] / columns_distinc[t] fallbacks — a window
# access serves sets and verdicts only for the fetch it just returned —
# and any read of result.row[s] on a query path under src/repro/core,
# client, serving or temporal/engine.py: results travel as columns and
# the client decoder zips them into rows once), and static data's
# second, per-triple shape (encode_tripl[e], decode_tripl[e],
# EncodedTripl[e], insert_tripl[e]s, DistributedStore.loa[d] and the
# engine's _initial_tripl[e]s, the dump's string "stati[c]" key and the
# TimedTupl[e] wrap in the relational baselines: static data is encoded
# by StringServer.encode_triples, written by insert_columns and kept
# durable as CheckpointManager.base), and the unused
# ServingLayer.disconnect_tenan[t] and FairScheduler.remove_tenan[t],
# and the variable-name sets that told a snapshot-number column from a
# vid one (interval_var[s] — the compiled plan decides one kind per
# column and ExecutionResult.kinds carries it — and the client's GROUP BY
# arithmetic, names_en[d] / query.group_b[y] in src/repro/client/library.py),
# with the second evaluator of interval relations (interval_op_hold[s],
# _CompiledIntervalFilte[r]: interval FILTERs compile to _NumericFilter)
# have not come back.
# A test marked both serving and chaos runs in the chaos stage only.
#
# The examples stage runs every walkthrough under examples/ (the only
# user-facing tour of save/restore is fault_recovery.py); each asserts
# its own results and exits non-zero on a mismatch.
#
# The obs stage exports a Chrome trace from a quick traced LSBench run
# and validates it (schema, lossless round trip, and per-activity
# critical paths summing to the recorded meter picoseconds — integer
# comparisons); see scripts/check_trace.py.
#
# The ablation stage runs the per-phase attribution smoke and the
# re-planning ablation (pinned vs adaptive on a skew inversion; asserts
# on the simulated clock only).
#
# The scalarization-shape stage runs the paper benches that assert the
# shape of bounded snapshot scalarization: compaction keeps the store
# smaller than retaining every snapshot's segments, which is smaller
# than per-value vector timestamps (§6.7), and wider SN-plan mappings
# trade one-shot staleness for injection freedom while segments per key
# stay bounded (§4.3).  A change to compaction or to the SN plan is
# checked against them here.
#
# The last stage runs the repo benchmark's own checks (benchmarks/e2e,
# the harness BENCHMARK.json names): a quick traced set of all five
# workloads — which exits non-zero on any failed operation (golden or
# oracle mismatch, exception, refusal, timeout) — then a check that
# every probe still resolves (`probes_missing` empty), then the harness
# self-test.  Quick sets are a smoke; they are never compared.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1 tests (fast tier) =="
PYTHONPATH=src python -m pytest -x -q \
    -m "not chaos and not serving and not adaptive and not temporal"

echo "== serving battery (sharing, admission, fairness) =="
PYTHONPATH=src python -m pytest -x -q -m "serving and not chaos"

echo "== chaos suite (fault injection + recovery equivalence) =="
PYTHONPATH=src python -m pytest -x -q -m chaos

echo "== adaptive re-planning suite (swap differentials + hysteresis) =="
PYTHONPATH=src python -m pytest -x -q -m adaptive

echo "== temporal suite (SPARQL-T snapshot + interval queries vs oracle and frozen charges) =="
PYTHONPATH=src python -m pytest -x -q -m temporal

echo "== columnar window closes (frozen verdicts, incl. kill-during-close) =="
PYTHONPATH=src python -m pytest -x -q \
    tests/core/test_columnar_slice.py \
    tests/chaos/test_columnar_differential.py

echo "== golden drift check (determinism, chaos, kernels) =="
python scripts/regen_goldens.py --check

echo "== deleted stays deleted (row-kernel option, charge-ordering machinery, hand-rolled query caches, adjacency knobs, interval kernel family, per-entry writes and span-walk reads, host-clock reads in src, the executor's row-shaped binding set, per-key store reads, the ValueSpa[n] dataclass, the versioned-key set and heap, per-tuple objects in the library, the AST serializer and string-decoded log replay, the degree sketch and the compaction due-list, the settings only tests set, skip postings and index-member sets, the row round trip between executor and client, the per-triple static-data path, disconnect_tenan[t] and remove_tenan[t], column kinds by variable name and the second interval evaluator) =="
# ([h] keeps this line from matching itself; `! grep` would not trip set -e.)
if grep -rn 'use_batc[h]\|columnar_batc[h]\|row_pat[h]' src scripts; \
        then exit 1; fi
if grep -rn 'ChargeSe[t]\|charges_commut[e]\|_ChargeScrip[t]\|charge_man[y]' \
        src scripts; then exit 1; fi
# (`\._plan_cach[e]\>` is the attribute; the exported `*_plan_cache_hits`
# counter names stay, as do the `adjacency_cache_hits` / `_misses` /
# `_evictions` / `_entries` / `_capacity` metric names.)
if grep -rn '_oneshot_parse_cach[e]\|\._plan_cach[e]\>\|PLAN_CACHE_CAPACIT[Y]' \
        src scripts; then exit 1; fi
if grep -rn '_CompiledPlainFilte[r]\|_plain_filter_matche[s]' \
        src scripts; then exit 1; fi
if grep -rn 'AdjacencyBudge[t]\|adjacency_weighte[d]\|adjacency_polic[y]\|adjacency_cache_\(polic[y]\|weighte[d]\|adaptiv[e]\|mi[n]\|ma[x]\)' \
        src scripts; then exit 1; fi
if grep -rn 'CompiledIntervalPla[n]\|evaluate_interval_batc[h]\|_extend_share[d]\|temporal\.kernel[s]\|oneshot_contentio[n]\|replan_hysteresi[s]' \
        src scripts; then exit 1; fi
# (`lookup_span[s]\>` is the plural only: `ShardStore.lookup_span` stays.)
if grep -rn 'insert_encode[d]\|insert_out_edg[e]\|insert_in_edg[e]\|\.add_inde[x](\|\.add_spa[n](\|_note_verte[x]\|lookup_span[s]\>\|_merge_span[s]\|span_fro[m]\|_timeless_neighbor[s]' \
        src scripts; then exit 1; fi
if grep -n 'repro\.store\.kvstore import.*\<_' src/repro/core/injector.py; \
        then exit 1; fi
if grep -rn 'wall_stat[s]' src scripts benchmarks --exclude-dir=e2e; \
        then exit 1; fi
if grep -rnE '^(import|from) time\b|perf_counte[r]' src/repro; \
        then exit 1; fi
if grep -rn 'SlotRo[w]\|\.to_row[s]\|from_row[s]\|_explore_row[s]\|project_gette[r]\|def _projec[t](' \
        src scripts; then exit 1; fi
if grep -rn 'neighbors_fro[m]\|cached_adjacenc[y]\|cache_adjacenc[y]' \
        src scripts; then exit 1; fi
if grep -rn 'ValueSpa[n]' src scripts tests; then exit 1; fi
if grep -rn '_versioned_hea[p]\|\._versione[d]\>' src scripts tests; \
        then exit 1; fi
if grep -rn 'EncodedTupl[e]\|encode_tupl[e]\|evict_befor[e]\|def spli[t](self, schem[a]' \
        src scripts tests benchmarks examples; then exit 1; fi
if grep -rn 'query_to_dic[t]\|query_from_dic[t]\|_decode_batch_lo[g]' \
        src scripts tests examples; then exit 1; fi
if grep -rn '_TopKSketc[h]\|TOPK_CAPACIT[Y]\|bump_man[y]\|topk_degre[e]\|\._du[e]\>' \
        src scripts tests benchmarks; then exit 1; fi
if grep -rn 'stream_start_m[s]\|keep_snapshot[s]\|auto_pad_stream[s]\|sample_ever[y]\|workers_per_nod[e]\|replan_cooldown_close[s]\|local_index_onl[y]\|relevant_predicate[s]\|retry_polic[y]' \
        src scripts tests benchmarks examples; then exit 1; fi
if grep -rn '_key_posting[s]\|_vertex_posting[s]\|_posting_batc[h]\|_index_member[s]\|_update_statistic[s]' \
        src scripts tests benchmarks examples; then exit 1; fi
if grep -rn 'column_set[s]\|columns_distinc[t]\|_decode_row[s]' \
        src scripts tests benchmarks examples; then exit 1; fi
if grep -rn 'result\.row[s]\>' src/repro/core src/repro/client \
        src/repro/serving src/repro/temporal/engine.py; then exit 1; fi
if grep -rn 'encode_tripl[e]\>\|decode_tripl[e]\|EncodedTripl[e]\|insert_tripl[e]s\|_initial_tripl[e]s\|disconnect_tenan[t]' \
        src scripts tests benchmarks examples; then exit 1; fi
if grep -n 'def loa[d](' src/repro/store/distributed.py; then exit 1; fi
if grep -n '"stati[c]"' src/repro/core/durability.py; then exit 1; fi
if grep -n 'TimedTupl[e]' src/repro/baselines/relational.py; then exit 1; fi
if grep -rn 'interval_var[s]' src scripts tests examples; then exit 1; fi
if grep -rn 'interval_op_hold[s]\|_CompiledIntervalFilte[r]' src scripts; \
        then exit 1; fi
if grep -n 'names_en[d]\|query\.group_b[y]' src/repro/client/library.py; \
        then exit 1; fi
if grep -rn 'remove_tenan[t]' src scripts tests benchmarks examples; \
        then exit 1; fi

echo "== examples (every walkthrough runs to completion) =="
for example in examples/*.py; do
    PYTHONPATH=src python "$example" > /dev/null
done

echo "== obs (trace export + critical-path exactness) =="
PYTHONPATH=src python scripts/check_trace.py

echo "== ablation report (per-phase attribution smoke + re-planning ablation) =="
PYTHONPATH=src python scripts/report_ablation.py --check --duration-ms 1000
PYTHONPATH=src python -m pytest benchmarks/bench_ablation_replan.py \
    --benchmark-only -q

echo "== scalarization shape (§6.7 SN-segment memory bound + plan-width trade-off) =="
PYTHONPATH=src python -m pytest benchmarks/bench_snapshot_memory.py \
    benchmarks/bench_ablation_plan_width.py --benchmark-only -q

echo "== repo benchmark checks (benchmarks/e2e: outputs, probes, self-test) =="
python3 benchmarks/e2e/run.py set --quick --trace --out ./.e2e_smoke.json \
    > .e2e_smoke.log || { cat .e2e_smoke.log; exit 1; }
python3 -c '
import json, sys
workloads = json.load(open(".e2e_smoke.json"))["workloads"]
for name, entry in workloads.items():
    print(name, entry["failed"], "of", entry["attempted"], "operations failed")
missing = {n: e["probes_missing"] for n, e in workloads.items()
           if e["probes_missing"]}
sys.exit(f"probes_missing: {missing}" if missing else 0)'
rm -f .e2e_smoke.json .e2e_smoke.log
PYTHONPATH=src python -m pytest -x -q benchmarks/e2e

echo "== done =="
