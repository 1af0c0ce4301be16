"""The frozen kernel battery behind ``tests/store/golden_kernels.json``.

Every query x execution mode x cluster shape x fault plan the row-vs-batch
differential suites used to run twice is defined here once, as generator
functions yielding ``(case_id, facts)``.  ``facts`` is what those suites
compared between the twins — rows (count + order-sensitive sha), the
simulated meter total, the per-category breakdown, the temporal traversal
counters and a state digest — and ``golden_kernels.json`` records it as
produced at the last commit where the row kernels still existed and agreed
(``scripts/regen_goldens.py`` asserted batch == row for every case before
writing); meters were re-recorded twice: as integer picoseconds, when the
clock became exact (PR 16: every latency within float rounding of the
frozen one, everything else identical), and on the ``temporal/*`` cases
when the interval kernels were folded into the executor's (PR 18: a
``project`` charge of ``binding`` price per distinct projected row,
everything else identical).  Rows get a second, implementation-free
anchor: every case that is a plain one-shot, ``FROM SNAPSHOT`` or interval
query is checked against the brute-force oracle
(:mod:`repro.temporal.reference`) as it runs.

The test files call ``assert_frozen(<family>(...), <prefix>)``;
``compute_facts`` is the union the regen script writes and drift-checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from baselines.helpers import EXPECTED_QC_AT_10S, feed, qc_query, to_names
from chaos.chaos_workload import (NUM_NODES, STREAMS, TICKS,
                                  TICKS_PER_CHECKPOINT)
from chaos.chaos_workload import build_engine as build_chaos_workload
from core.test_engine import build_engine as build_paper_engine
from repro.baselines.composite import CompositeEngine
from repro.bench.harness import build_wukongs
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.chaos.controller import ChaosController
from repro.chaos.harness import (_execution_facts, _injection_facts,
                                 execution_fingerprints)
from repro.chaos.plan import FaultPlan, KillNode
from repro.chaos.state import (_shard_digest, digest_sha256,
                               engine_state_digest)
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sim.rng import stable_rng
from repro.sparql.ast import OPEN_END, TriplePattern
from repro.sparql.parser import parse_query
from repro.sparql.planner import (BOUND_SUBJECT, CONST_SUBJECT, INDEX_START,
                                  PlannedStep, plan_query, plan_steps)
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)
from store.helpers import load_triples
from streams.helpers import timed

GOLDEN_KERNELS_PATH = os.path.join(os.path.dirname(__file__),
                                   "golden_kernels.json")

Cases = Iterator[Tuple[str, dict]]


# --- shared fact/oracle helpers -----------------------------------------

def rows_sha(rows) -> str:
    """Order-sensitive fingerprint of a row list."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def meter_facts(meter) -> dict:
    """The exact integer picoseconds of a meter and of its categories."""
    return {"ps": meter.ps, "breakdown_ps": meter.breakdown_ps}


def execution_facts(result, meter) -> dict:
    return {"variables": list(result.variables), "rows": len(result.rows),
            "rows_sha": rows_sha(result.rows), **meter_facts(meter)}


def temporal_facts(record) -> dict:
    facts = execution_facts(record.result, record.meter)
    facts.update(snapshot=record.snapshot,
                 snapshot_reads=record.snapshot_reads,
                 version_entries=record.version_entries,
                 max_chain_depth=record.max_chain_depth)
    return facts


def assert_matches_oracle(text, result, strings, history, snapshot) -> None:
    """Engine rows == brute force over the dumped history, as sets (the
    oracle joins in written order, the engine in plan order)."""
    ast = parse_query(text)
    expected = reference_rows(ast, history, snapshot)
    decoded = decode_result(result, strings)
    assert sorted(map(repr, decoded)) == sorted(map(repr, expected)), text


def engine_sha(engine) -> str:
    return digest_sha256(engine_state_digest(engine))


def as_json(cases) -> dict:
    """Cases in the golden's representation (tuples become lists)."""
    return json.loads(json.dumps(dict(cases), sort_keys=True))


def frozen(prefix: str) -> dict:
    """The recorded facts of every case whose id starts with ``prefix``."""
    with open(GOLDEN_KERNELS_PATH) as handle:
        golden = json.load(handle)
    return {case_id: facts for case_id, facts in golden.items()
            if case_id.startswith(prefix)}


def assert_frozen(cases, prefix: str) -> None:
    """The cases just run are exactly the recorded ones under ``prefix``
    (none missing, none extra) with identical facts."""
    assert as_json(cases) == frozen(prefix)


@contextmanager
def stable_lsbench():
    """LSBench seeds its generators through ``make_rng``, whose string
    salt hashes differently in every process; generate under the
    CRC-based ``stable_rng`` instead so frozen charges reproduce
    anywhere (the data shape is the same, the draws are not)."""
    import repro.bench.lsbench as lsbench
    original = lsbench.make_rng
    lsbench.make_rng = stable_rng
    try:
        yield
    finally:
        lsbench.make_rng = original


# --- XLAB: the executor's modes on a 3-node store -------------------------

XLAB = """
Logan ty XMen .
Erik ty XMen .
Logan fo Erik .
Erik fo Logan .
Logan po T-13 .
Logan po T-14 .
Erik po T-12 .
T-13 ht sosp17 .
T-12 ht sosp17 .
Logan li T-12 .
Erik li T-13 .
Erik li T-14 .
T-12 sc 2 .
T-13 sc 5 .
T-14 sc 9 .
"""

#: Index-start plans (exercise fork-join) and constant-start plans
#: (exercise migrate), with and without FILTER schedules.
INDEX_QUERIES = [
    "SELECT ?U ?P WHERE { ?U po ?P }",
    "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }",
    "SELECT ?P ?S WHERE { ?U po ?P . ?P sc ?S . FILTER (?S > 2) }",
    "SELECT ?U ?P WHERE { ?U po ?P . FILTER (?U != Erik) }",
]
CONST_QUERIES = [
    "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }",
    "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }",
    "SELECT ?X ?S WHERE { Logan po ?X . ?X sc ?S . FILTER (?S < 9) }",
]
#: Plans that extend their solutions one row at a time (a one-row batch
#: per row) through UNION arms and OPTIONAL groups after the step phase.
FALLBACK_QUERIES = [
    "SELECT ?P WHERE { { Logan po ?P } UNION { Erik po ?P } }",
    "SELECT ?P ?T WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } }",
    "SELECT ?U ?P ?T WHERE { ?U po ?P . OPTIONAL { ?P ht ?T } }",
]
#: The remaining OPTIONAL shapes of tests/sparql/test_optional.py: a
#: leftover FILTER over an OPTIONAL-bound variable, and two groups.
OPTIONAL_QUERIES = [
    "SELECT ?P ?T WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } "
    "FILTER (?T = sosp17) }",
    "SELECT ?P ?T ?L WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } "
    "OPTIONAL { ?L li ?P } }",
]
#: UNION shapes of tests/sparql/test_union.py: arms joined onto
#: mandatory rows, a UNION feeding an OPTIONAL, and two-step arms.
UNION_QUERIES = [
    "SELECT ?P ?W WHERE { ?P ht sosp17 . { ?W po ?P } UNION { ?W li ?P } }",
    "SELECT ?P ?T WHERE { { Logan po ?P } UNION { Logan li ?P } "
    "OPTIONAL { ?P ht ?T } }",
    "SELECT ?U ?P ?S WHERE { ?U ty XMen . "
    "{ ?U po ?P . ?P sc ?S } UNION { ?U li ?P . ?P sc ?S } }",
]
#: Run with the OPTIONAL group's first sub-step forced to INDEX_START
#: over the already-bound ``?P`` — the one index-expansion shape no
#: planner output reaches on the mandatory path.
FORCED_INDEX_OPTIONAL = FALLBACK_QUERIES[2]

#: shape -> mode -> queries.  ``rdma3``/``tcp3`` are three nodes with and
#: without RDMA; ``dup3`` re-inserts two edges at a later snapshot so
#: adjacency lists carry duplicates.
_PER_ROW_QUERIES = FALLBACK_QUERIES + OPTIONAL_QUERIES + UNION_QUERIES
XLAB_MATRIX = {
    "rdma3": {
        "in_place": _PER_ROW_QUERIES,
        "fork_join": INDEX_QUERIES + _PER_ROW_QUERIES,
        "migrate": INDEX_QUERIES + CONST_QUERIES + _PER_ROW_QUERIES,
    },
    "tcp3": {"migrate": INDEX_QUERIES + CONST_QUERIES},
    "dup3": {"fork_join": INDEX_QUERIES,
             "migrate": INDEX_QUERIES + CONST_QUERIES},
}


def build_xlab(shape: str = "rdma3"):
    cluster = Cluster(num_nodes=3, use_rdma=shape != "tcp3")
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    load_triples(store, parse_triples(XLAB))
    if shape == "dup3":
        load_triples(store, parse_triples("Logan po T-13 .\nErik fo Logan ."),
                     sn=1)
    return cluster, strings, store


def persistent_factory(store, max_sn=None):
    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id, max_sn=max_sn)
        return lambda pattern: access
    return factory


def store_sha(store) -> str:
    return digest_sha256([_shard_digest(shard) for shard in store.shards])


def run_xlab(cluster, strings, store, text, mode,
             force_index_optional=False):
    explorer = GraphExplorer(cluster, strings)
    plan = plan_query(parse_query(text))
    if force_index_optional:
        explorer._compile(plan).optionals[0][0].kind = INDEX_START
    meter = LatencyMeter()
    result = explorer.execute(plan, persistent_factory(store), meter,
                              mode=mode)
    # Pure-UNION plans have no steps, so no step kernel runs.
    assert explorer.batch_executions == (1 if plan.steps else 0), text
    return result, meter


def xlab_cases(shape: str, mode: str) -> Cases:
    cluster, strings, store = build_xlab(shape)
    history = dump_history(store)
    before = store_sha(store)
    prefix = f"xlab/{shape}/{mode}/"
    for text in XLAB_MATRIX[shape][mode]:
        result, meter = run_xlab(cluster, strings, store, text, mode)
        assert_matches_oracle(text, result, strings, history, OPEN_END)
        yield prefix + text, execution_facts(result, meter)
    if shape == "rdma3":
        result, meter = run_xlab(cluster, strings, store,
                                 FORCED_INDEX_OPTIONAL, mode,
                                 force_index_optional=True)
        assert_matches_oracle(FORCED_INDEX_OPTIONAL, result, strings,
                              history, OPEN_END)
        yield prefix + "forced-index OPTIONAL", \
            execution_facts(result, meter)
    assert store_sha(store) == before  # reads never move state
    yield prefix + "state", {"store_sha": before}


def explore_cases() -> Cases:
    """``GraphExplorer.explore``: bare steps over caller-supplied seed
    rows (the composite baseline's embedded sub-queries)."""
    cluster, strings, store = build_xlab()
    explorer = GraphExplorer(cluster, strings)
    access = PersistentAccess(store, home_node=0)
    logan = strings.lookup_entity("Logan")
    erik = strings.lookup_entity("Erik")
    follows = TriplePattern("?X", "fo", "?Y")
    posts = TriplePattern("?Y", "po", "?P")
    posted = TriplePattern("?X", "po", "?P")
    logan_follows = TriplePattern("Logan", "fo", "?Y")
    t12, t13 = (strings.lookup_entity(name) for name in ("T-12", "T-13"))
    seeds = [{"?X": logan}, {"?X": erik}, {"?X": logan}]
    runs = {
        "unseeded": (plan_steps([follows, posts]), None),
        "seeded": (plan_steps([follows, posts], prebound={"?X"}), seeds),
        "no-seeds": (plan_steps([follows, posts], prebound={"?X"}), []),
        "const-cross": ([PlannedStep(logan_follows, CONST_SUBJECT)], seeds),
        "const-membership": ([PlannedStep(logan_follows, CONST_SUBJECT)],
                             [{"?Y": erik}, {"?Y": logan}]),
        "bound-subject": ([PlannedStep(posted, BOUND_SUBJECT)], seeds),
        "bound-membership": ([PlannedStep(posted, BOUND_SUBJECT)],
                             [{"?X": logan, "?P": t13},
                              {"?X": erik, "?P": t13}]),
        "index-cross": ([PlannedStep(posts, INDEX_START)], seeds),
        "index-over-bound-subject": ([PlannedStep(posted, INDEX_START)],
                                     seeds),
        "index-over-bound-object": ([PlannedStep(posted, INDEX_START)],
                                    [{"?P": t13}, {"?P": t12}]),
    }
    rows_of = {}
    for name, (steps, seed_rows) in runs.items():
        meter = LatencyMeter()
        rows = explorer.explore(steps, lambda pattern: access, meter,
                                seeds=seed_rows)
        rows_of[name] = rows = [sorted(row.items()) for row in rows]
        yield f"explore/{name}", {
            "rows": len(rows), "rows_sha": rows_sha(rows),
            **meter_facts(meter)}
    # An index scan restricted to an already-bound subject answers what
    # the bound expansion answers; only the charges differ.
    assert rows_of["index-over-bound-subject"] == rows_of["bound-subject"]


def composite_cases() -> Cases:
    """The composite baseline ships stream-side bindings into its Wukong
    subcomponent as multi-row ``explore`` seeds: QC under both plan
    styles on one and two nodes, plus its static one-shot path."""
    for num_nodes in (1, 2):
        for style in ("interleaved", "stream_first"):
            engine = feed(CompositeEngine(Cluster(num_nodes=num_nodes),
                                          plan=style))
            rows, meter, breakdown = engine.execute_continuous(qc_query(),
                                                               10_000)
            assert to_names(engine.strings, rows) == EXPECTED_QC_AT_10S
            yield f"composite/n{num_nodes}/{style}", {
                "rows": len(rows), "rows_sha": rows_sha(rows),
                **meter_facts(meter), "wukong_ms": breakdown.wukong_ms}
        rows, meter = engine.execute_oneshot(parse_query(QC_ONESHOT))
        yield f"composite/n{num_nodes}/oneshot", {
            "rows": len(rows), "rows_sha": rows_sha(rows),
            **meter_facts(meter)}


# --- LSBench S1-S6 on one to three nodes ----------------------------------

S_QUERIES = ["S1", "S2", "S3", "S4", "S5", "S6"]


def build_lsbench(num_nodes: int, duration_ms: int = 1_000,
                  config: LSBenchConfig = None, **kwargs):
    with stable_lsbench():
        bench = LSBench(config or LSBenchConfig.tiny())
        engine = build_wukongs(bench, num_nodes=num_nodes,
                               duration_ms=duration_ms, **kwargs)
    engine.run_until(duration_ms)
    return bench, engine


def lsbench_cases(num_nodes: int) -> Cases:
    """The S-query plans through ``GraphExplorer.execute`` in the auto
    mode (in-place on one node; fork-join for index starts otherwise)
    and, on multi-node clusters, in migrate."""
    bench, engine = build_lsbench(num_nodes)
    sn = engine.coordinator.stable_sn
    history = dump_history(engine.store)
    before = engine_sha(engine)
    explorer = GraphExplorer(engine.cluster, engine.strings)
    factory = persistent_factory(engine.store, max_sn=sn)
    modes = ["auto"] if num_nodes == 1 else ["auto", "migrate"]
    for name in S_QUERIES:
        text = bench.oneshot_query(name)
        plan = engine.oneshot_engine.plan(parse_query(text))
        for mode in modes:
            meter = LatencyMeter()
            result = explorer.execute(plan, factory, meter, home_node=0,
                                      mode=mode)
            assert_matches_oracle(text, result, engine.strings, history, sn)
            yield f"lsbench/n{num_nodes}/{mode}/{name}", \
                execution_facts(result, meter)
    assert engine_sha(engine) == before
    yield f"lsbench/n{num_nodes}/state", {"state_sha": before}


# --- whole-engine runs ------------------------------------------------------

QC_TWEETS = """
Logan po T-15 @2200
T-15 ht sosp17 @2250
Erik po T-16 @5100
Logan po T-17 @8100
T-17 ht sosp17 @8200
"""

QC = """
REGISTER QUERY QC AS
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
}
"""

QC_ONESHOT = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"


def build_qc_engine() -> WukongSEngine:
    engine = WukongSEngine(
        schemas=[StreamSchema("Tweet_Stream")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000))
    engine.load_static(parse_triples(XLAB))
    source = StreamSource(engine.schemas["Tweet_Stream"])
    source.queue_tuples(parse_timed_tuples(QC_TWEETS), 0, 1000)
    engine.attach_source(source)
    return engine


def engine_qc_cases() -> Cases:
    """Injection records, continuous window closes and a one-shot on a
    two-node engine."""
    engine = build_qc_engine()
    engine.register_continuous(QC)
    engine.run_until(10_000)
    record = engine.oneshot(QC_ONESHOT)
    assert_matches_oracle(QC_ONESHOT, record.result, engine.strings,
                          dump_history(engine.store), record.snapshot)
    yield "engine/qc/injection", {
        "records": [[r.num_tuples, r.meter.ps]
                    for r in engine.injection_records]}
    yield "engine/qc/windows", {
        "closes": [dict(execution_facts(r.result, r.meter),
                        close_ms=r.close_ms)
                   for r in engine.continuous.queries["QC"].executions]}
    yield "engine/qc/oneshot", execution_facts(record.result, record.meter)
    yield "engine/qc/state", {"state_sha": engine_sha(engine)}


OPTIONAL_TAGS = "SELECT ?P ?T WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } }"
OPTIONAL_WINDOW = """
SELECT ?U ?T ?L
FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE {
    GRAPH Tweet_Stream { ?U po ?T }
    OPTIONAL { GRAPH Tweet_Stream { ?T ga ?L } }
}"""


def engine_optional_cases() -> Cases:
    """The engine executions of tests/sparql/test_optional.py: stored
    OPTIONALs after stream absorption, and one over a stream window
    (time-scoped, read through a one-off ``ColumnarSlice``)."""
    engine = build_paper_engine()
    engine.run_until(4_000)
    history = dump_history(engine.store)
    for text in [OPTIONAL_TAGS] + OPTIONAL_QUERIES:
        record = engine.oneshot(text, home_node=0)
        assert_matches_oracle(text, record.result, engine.strings, history,
                              record.snapshot)
        yield f"engine/optional/{text}", \
            execution_facts(record.result, record.meter)
    engine.run_until(10_000)
    record = engine.oneshot_time_scoped(OPTIONAL_WINDOW, 0, 10_000)
    yield "engine/optional/stream-window", \
        execution_facts(record.result, record.meter)
    yield "engine/optional/state", {"state_sha": engine_sha(engine)}


# --- chaos workload: window closes under a kill ----------------------------

def kill_during_close_plan() -> FaultPlan:
    """Kill node 1 at tick 26 for 4 ticks: with 100 ms batches and
    STEP 100 windows, closes fire every tick, so the crash lands mid-
    schedule and forces catch-up closes after the heal."""
    plan = FaultPlan(faults=[KillNode(at_tick=26, node_id=1, down_ticks=4)],
                     name="kill-during-close")
    plan.validate(NUM_NODES, STREAMS, TICKS,
                  ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
    return plan


def run_chaos_workload(faulted: bool):
    engine = build_chaos_workload()
    if faulted:
        ChaosController(kill_during_close_plan()).attach(engine,
                                                         ticks=TICKS)
    for _ in range(TICKS):
        engine.step()
    engine.gc.run(engine.clock.now_ms)
    return engine


def chaos_facts(engine) -> dict:
    """Rows and meters of every continuous execution (catch-ups
    included), injection records with meters, and the state digest after
    the final GC pass."""
    executions = _execution_facts(engine)
    injections = _injection_facts(engine, with_meters=True)
    return {
        "executions": sum(len(records) for records in executions.values()),
        "execution_ps": sum(record[3] for records in executions.values()
                            for record in records),
        **execution_fingerprints(executions),
        "injection_rows_sha256": digest_sha256(
            [record[:3] for record in injections]),
        "injection_latency_sha256": digest_sha256(
            [record[3:] for record in injections]),
        "state_sha": engine_sha(engine),
    }


# --- temporal: interval queries over version chains ------------------------

OPS = ["OVERLAPS", "DURING", "BEFORE", "AFTER", "STARTS"]
USERS = ["u0", "u1", "u2", "u3"]
RING = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u3 .\nu3 fo u0 ."

#: Events per seeded history (actor, post id, batch), drawn from
#: ``random.Random(0)``; the empty history is deliberate.
HISTORY_SIZES = [0, 3, 6, 10, 14, 18, 22, 24]

#: The history the kill-during-query plan runs against.
KILL_HISTORY = 5


def seeded_histories() -> List[List[Tuple[str, int, int]]]:
    rng = random.Random(0)
    return [[(rng.choice(USERS), rng.randrange(6), rng.randrange(6))
             for _ in range(size)] for size in HISTORY_SIZES]


#: Interval query templates spanning every kernel branch: single and
#: multi-pattern quintuples, constant and variable endpoints, plain and
#: interval FILTERs, and a shared-``?ts`` join.  Placeholders: ``{op}``,
#: ``{actor}`` and the constant interval ``[{lo}, {hi})``.
INTERVAL_TEMPLATES = {
    "single-ifilter":
        "SELECT ?U ?P ?ts WHERE {{ ?U po ?P [?ts, ?te) "
        "FILTER ([?ts, ?te) {op} [{lo}, {hi})) }}",
    "const-subject":
        "SELECT ?P ?ts WHERE {{ {actor} po ?P [?ts, ?te) "
        "FILTER (?ts >= {lo}) }}",
    "two-filters":
        "SELECT ?P ?ts WHERE {{ {actor} po ?P [?ts, ?te) "
        "FILTER (?ts >= {lo}) "
        "FILTER ([?ts, ?te) {op} [{lo}, {hi})) }}",
    "quintuple-join":
        "SELECT ?F ?P ?pts WHERE {{ {actor} fo ?F [?fts, ?fte) . "
        "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }}",
    "shared-ts-join":
        "SELECT ?U ?F ?P WHERE {{ ?U fo ?F [?ts, ?fte) . "
        "?F po ?P [?ts, ?pte) }}",
}


def battery_queries(rng: random.Random) -> List[Tuple[str, str]]:
    """Every template once per operator, parameters drawn from ``rng``."""
    out = []
    for op in OPS:
        lo, width = rng.randrange(7), rng.randrange(1, 7)
        actor = rng.choice(USERS)
        out += [(f"{op}/{name}",
                 template.format(op=op, lo=lo, hi=lo + width, actor=actor))
                for name, template in INTERVAL_TEMPLATES.items()]
    return out


def build_posts_engine(events, num_nodes: int = 2, static: str = RING,
                       **config) -> WukongSEngine:
    """Static ``fo`` edges plus ``po`` posts streamed in 1 s batches,
    scalarization off so the full ``?ts`` history stays readable."""
    posts = timed((actor, "po", f"t{post_id}", batch * 1000 + 500)
                  for actor, post_id, batch in sorted(events,
                                                      key=lambda e: e[2]))
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts")],
        config=EngineConfig(num_nodes=num_nodes, batch_interval_ms=1000,
                            scalarization=False, **config))
    engine.load_static(parse_triples(static))
    source = StreamSource(engine.schemas["Posts"])
    source.queue_tuples(posts, 0, 1000)
    engine.attach_source(source)
    return engine


def kill_during_query_plan(ticks: int) -> FaultPlan:
    """Kill node 1 mid-ingestion for 2 ticks: the interval queries then
    run against the recovered, replayed store."""
    plan = FaultPlan(faults=[KillNode(at_tick=3, node_id=1, down_ticks=2)],
                     name="kill-during-query")
    plan.validate(2, ("Posts",), ticks, ticks_per_checkpoint=1)
    return plan


def build_killed_posts_engine(events, ticks: int = 8):
    engine = build_posts_engine(events, fault_tolerance=True,
                                checkpoint_interval_ms=1000)
    controller = ChaosController(kill_during_query_plan(ticks))
    controller.attach(engine, ticks=ticks)
    for _ in range(ticks):
        engine.step()
    # The fault must actually have fired and healed.
    assert controller.first_fault_ms is not None
    assert controller.heal_ms is not None
    return engine


def run_interval_queries(engine, queries, prefix: str,
                         **oneshot_kwargs) -> Cases:
    """Run ``(name, text)`` interval queries on one engine: temporal
    facts per query, rows against the oracle, digest unmoved."""
    history = dump_history(engine.store)
    before = engine_sha(engine)
    ran = engine.temporal.batch_executions
    for name, text in queries:
        record = engine.oneshot(text, **oneshot_kwargs)
        assert record.interval_path
        assert_matches_oracle(text, record.result, engine.strings, history,
                              record.snapshot)
        yield prefix + name, temporal_facts(record)
    # Each query was counted as an interval execution.
    assert engine.temporal.batch_executions == ran + len(queries)
    assert engine_sha(engine) == before
    yield prefix + "state", {"state_sha": before}


def temporal_battery_cases(num_nodes: int) -> Cases:
    rng = random.Random(0)
    for index, events in enumerate(seeded_histories()):
        engine = build_posts_engine(events, num_nodes=num_nodes)
        engine.run_until(7_000)
        yield from run_interval_queries(
            engine, battery_queries(rng),
            f"temporal/battery/n{num_nodes}/h{index}/")


def temporal_kill_cases() -> Cases:
    engine = build_killed_posts_engine(seeded_histories()[KILL_HISTORY])
    yield from run_interval_queries(
        engine, battery_queries(random.Random(0)), "temporal/kill/")


#: Posts inserted at batches 0..3, so insertion SNs land at the small
#: constants the boundary FILTERs probe the edges of.
BOUNDARY_EVENTS = [("u0", 0, 0), ("u0", 1, 1), ("u1", 1, 1), ("u1", 2, 2),
                   ("u0", 3, 3), ("u1", 3, 3)]

BOUNDARY_QUERIES = [
    # Zero-width left operand via variable aliasing: the point ?ts
    # against a constant window (constants cannot express [2, 2)).
    "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
    "FILTER ([?ts, ?ts) OVERLAPS [2, 5)) }",
    # Adjacency: BEFORE accepts te == right start exactly.
    "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
    "FILTER ([?ts, 3) BEFORE [3, 5)) }",
    # AFTER at the shared endpoint.
    "SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) "
    "FILTER ([?ts, ?te) AFTER [0, 2)) }",
    # DURING with equal endpoints on both sides.
    "SELECT ?P ?ts WHERE { u0 po ?P [?ts, ?te) "
    "FILTER ([?ts, ?ts) DURING [?ts, ?ts)) }",
    # STARTS against a constant lower endpoint.
    "SELECT ?U ?P WHERE { ?U po ?P [?ts, ?te) "
    "FILTER ([?ts, ?te) STARTS [2, 9)) }",
]


def temporal_boundary_cases() -> Cases:
    engine = build_posts_engine(BOUNDARY_EVENTS,
                                static="u0 fo u1 .\nu1 fo u2 .")
    engine.run_until(6_000)
    yield from run_interval_queries(
        engine, [(text, text) for text in BOUNDARY_QUERIES],
        "temporal/boundary/")


def build_deep_engine() -> WukongSEngine:
    """Deep-history scale on two nodes: thousands of probes, about half
    of them remote, and meter totals in the millions of ns."""
    _, engine = build_lsbench(2, duration_ms=2_000, config=LSBenchConfig())
    return engine


def temporal_deep_cases(engine: WukongSEngine = None) -> Cases:
    if engine is None:
        engine = build_deep_engine()
    hi = max(2, engine.coordinator.stable_sn)
    queries = [
        ("range-cut",
         "SELECT ?s ?o ?ts WHERE { ?s po ?o [?ts, ?te) . "
         f"FILTER ([?ts, ?te) OVERLAPS [1, {hi})) }}"),
        ("two-hop",
         "SELECT ?u ?f ?p ?ts WHERE { ?u fo ?f [?fts, ?fte) . "
         "?f po ?p [?ts, ?te) . FILTER ([?ts, ?te) DURING [1, *)) }"),
    ]
    yield from run_interval_queries(engine, queries, "temporal/deep/",
                                    home_node=0)


# --- the union the regen script writes ---------------------------------------

def compute_facts() -> Dict[str, dict]:
    families = [xlab_cases(shape, mode)
                for shape, modes in XLAB_MATRIX.items() for mode in modes]
    families += [explore_cases(), composite_cases()]
    families += [lsbench_cases(nodes) for nodes in (1, 2, 3)]
    families += [engine_qc_cases(), engine_optional_cases()]
    families += [temporal_battery_cases(nodes) for nodes in (1, 2)]
    families += [temporal_kill_cases(), temporal_boundary_cases(),
                 temporal_deep_cases()]
    facts = {case_id: case for family in families
             for case_id, case in family}
    for name, faulted in (("fault-free", False),
                          ("kill-during-close", True)):
        facts[f"chaos/{name}"] = chaos_facts(run_chaos_workload(faulted))
    return facts
