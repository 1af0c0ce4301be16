"""One-shot fast path: ordering is answer-preserving, caches behave.

Three guarantees of the selectivity-ordered, cached, batched one-shot
pipeline:

* **Ordering never changes the answer** — seeded property test: for
  LSBench and CityBench one-shot queries, the statistics-ordered plan,
  the plain textual-order plan and random seeded pattern orders all
  produce the same solution set.
* **Ordering is deterministic** — two identically built engines pick
  identical plan orders (statistics are pure functions of store state).
* **The caches are transparent** — the compiled-plan and query-parse
  caches return reused objects without changing results, stay bounded,
  and the columnar kernels charge exactly what ``golden_kernels.json``
  froze.
"""

import random

import pytest

from repro.bench.citybench import CityBench, CityBenchConfig
from repro.bench.harness import build_wukongs
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.core.pipeline import CACHE_CAPACITY
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_order, plan_query
from repro.store.distributed import PersistentAccess

from store.kernel_cases import assert_frozen, lsbench_cases

DURATION_MS = 1_000
S_QUERIES = ["S1", "S2", "S3", "S4", "S5", "S6"]

#: Ad-hoc one-shot queries over CityBench's static graph (the catalogue
#: itself is all-continuous).
CITY_ONESHOTS = [
    "SELECT ?S ?R WHERE { ?S onRoad ?R }",
    "SELECT ?L ?R ?A WHERE { ?L nearRoad ?R . ?R inArea ?A }",
    "SELECT ?X ?Y ?A WHERE { ?X connects ?Y . ?Y inArea ?A }",
    "SELECT ?S ?A WHERE { ?S ty PollutionSensor . ?S inArea ?A }",
    "SELECT ?R WHERE { ?R ty Road . ?R inArea Area0 }",
]


@pytest.fixture(scope="module")
def ls_engine():
    bench = LSBench(LSBenchConfig.tiny())
    engine = build_wukongs(bench, num_nodes=1, duration_ms=DURATION_MS)
    engine.run_until(DURATION_MS)
    return bench, engine


@pytest.fixture(scope="module")
def city_engine():
    bench = CityBench(CityBenchConfig.tiny())
    engine = build_wukongs(bench, num_nodes=1, duration_ms=DURATION_MS)
    engine.run_until(DURATION_MS)
    return bench, engine


def rows_for_plan(engine, plan):
    """Execute a prepared plan at the stable snapshot, bypassing caches."""
    access = PersistentAccess(engine.store, home_node=0,
                              max_sn=engine.coordinator.stable_sn)
    result = engine.oneshot_engine.explorer.execute(
        plan, lambda node: (lambda pattern: access), LatencyMeter(),
        home_node=0)
    return result


def assert_all_orders_agree(engine, text, rng):
    parsed = parse_query(text)
    ordered = engine.oneshot(text)
    unordered = rows_for_plan(engine, plan_query(parse_query(text)))
    assert ordered.result.variables == unordered.variables
    assert set(ordered.result.rows) == set(unordered.rows), text
    for _ in range(3):
        order = list(range(len(parsed.patterns)))
        rng.shuffle(order)
        shuffled = rows_for_plan(
            engine, plan_query(parse_query(text), fixed_order=order))
        assert set(shuffled.rows) == set(unordered.rows), (text, order)


@pytest.mark.parametrize("name", S_QUERIES)
def test_lsbench_ordering_preserves_answers(ls_engine, name):
    bench, engine = ls_engine
    rng = random.Random(f"oneshot-order-{name}")
    assert_all_orders_agree(engine, bench.oneshot_query(name), rng)


@pytest.mark.parametrize("text", CITY_ONESHOTS)
def test_citybench_ordering_preserves_answers(city_engine, text):
    _, engine = city_engine
    rng = random.Random(f"oneshot-order-{text}")
    assert_all_orders_agree(engine, text, rng)


def test_lsbench_queries_return_rows(ls_engine):
    bench, engine = ls_engine
    for name in ("S1", "S4", "S6"):
        assert engine.oneshot(bench.oneshot_query(name)).result.rows, name


def test_stats_ordering_is_deterministic(ls_engine):
    bench, engine = ls_engine
    twin = build_wukongs(LSBench(LSBenchConfig.tiny()), num_nodes=1,
                         duration_ms=DURATION_MS)
    twin.run_until(DURATION_MS)
    for name in S_QUERIES:
        parsed = parse_query(bench.oneshot_query(name))
        order = plan_order(parsed.patterns,
                           stats=engine.oneshot_engine._statistics())
        again = plan_order(parsed.patterns,
                           stats=engine.oneshot_engine._statistics())
        twin_order = plan_order(parsed.patterns,
                                stats=twin.oneshot_engine._statistics())
        assert order == again == twin_order, name
        assert sorted(order) == list(range(len(parsed.patterns)))


def test_plan_cache_reuses_compiled_plans(ls_engine):
    bench, engine = ls_engine
    parsed = parse_query(bench.oneshot_query("S6"))
    first = engine.oneshot_engine.plan(parsed)
    assert first.compiled is not None
    hits = engine.pipeline.plan_hits["oneshot"]
    second = engine.oneshot_engine.plan(parsed)
    assert first is second
    # An equivalent but separately parsed query hits the same entry.
    assert engine.oneshot_engine.plan(
        parse_query(bench.oneshot_query("S6"))) is first
    assert engine.pipeline.plan_hits["oneshot"] == hits + 2


def test_plan_cache_stays_bounded(ls_engine):
    bench, engine = ls_engine
    for i in range(CACHE_CAPACITY + 20):
        engine.oneshot(f"SELECT ?P WHERE {{ ghost{i} po ?P }}")
    pipeline = engine.pipeline
    assert len(pipeline.plans) == len(pipeline.texts) == CACHE_CAPACITY
    assert pipeline.plans.evictions >= 20


def test_parse_cache_reuses_parsed_queries(ls_engine):
    bench, engine = ls_engine
    text = bench.oneshot_query("S3")
    engine.oneshot(text)
    cached = engine.pipeline.parse(text)
    hits = engine.pipeline.texts.hits
    engine.oneshot(text)
    assert engine.pipeline.parse(text) is cached
    assert engine.pipeline.texts.hits == hits + 2


def test_batch_path_charges_match_row_path():
    """The S-query plans on one to three nodes (auto mode, and migrate
    on the multi-node clusters) must keep the rows, charges and digest
    frozen while the row kernels still ran beside the columnar ones."""
    for num_nodes in (1, 2, 3):
        assert_frozen(lsbench_cases(num_nodes), f"lsbench/n{num_nodes}/")
