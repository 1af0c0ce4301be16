"""Randomized soak test: arbitrary configurations and stream content.

A final robustness net over the whole engine: random cluster sizes, plan
widths, batch intervals, schemas and stream contents must always run to
completion with the core invariants intact — the stable VTS never exceeds
what was delivered, snapshots stay bounded, stats collect, and one-shot
queries answer.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.stats import collect_stats
from repro.rdf.terms import TimedTuple, Triple
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

USERS = [f"u{i}" for i in range(6)]
THINGS = [f"t{i}" for i in range(6)]
PREDICATES = ["po", "li", "ga"]


config_strategy = st.fixed_dictionaries({
    "num_nodes": st.sampled_from([1, 2, 3, 5]),
    "plan_width": st.sampled_from([1, 2, 5]),
    "batch_interval_ms": st.sampled_from([100, 250, 500]),
    "injector_threads": st.sampled_from([1, 3]),
    "fault_tolerance": st.booleans(),
    "gc_every_ticks": st.sampled_from([0, 2]),
})

events_strategy = st.lists(
    st.tuples(st.sampled_from(USERS), st.sampled_from(PREDICATES),
              st.sampled_from(THINGS), st.integers(0, 3_000)),
    max_size=40)


@settings(max_examples=25, deadline=None)
@given(config=config_strategy, events=events_strategy,
       timing_ga=st.booleans())
def test_engine_survives_arbitrary_runs(config, events, timing_ga):
    schema = StreamSchema("S", frozenset({"ga"}) if timing_ga
                          else frozenset())
    engine = WukongSEngine(schemas=[schema],
                           config=EngineConfig(**config))
    engine.load_static([Triple("u0", "fo", "u1"), Triple("u1", "fo", "u2")])

    tuples = sorted(
        (TimedTuple(Triple(s, p, o), ts) for s, p, o, ts in events),
        key=lambda t: t.timestamp_ms)
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(tuples, 0, config["batch_interval_ms"])
    engine.attach_source(source)

    if config["batch_interval_ms"] in (100, 250, 500):
        step = config["batch_interval_ms"] * 2
        engine.register_continuous(f"""
            REGISTER QUERY Q AS
            SELECT ?U ?X
            FROM S [RANGE {step * 2}ms STEP {step}ms]
            WHERE {{ GRAPH S {{ ?U po ?X }} }}
        """)

    engine.run_until(4_000)

    # Invariant: stable VTS never exceeds the delivered frontier.
    stable = engine.coordinator.stable_vts().get("S")
    assert stable <= engine._last_delivered["S"]
    # Invariant: bounded scalarization keeps per-key SN segments small.
    for shard in engine.store.shards:
        for key in shard.iter_keys():
            assert shard.segments(key) <= config["plan_width"] + 2
    # The engine stays queryable and observable.
    record = engine.oneshot("SELECT ?U ?X WHERE { ?U po ?X }")
    timeless_po = {(t.triple.subject, t.triple.object) for t in tuples
                   if t.triple.predicate == "po"}
    decoded = {(engine.strings.entity_name(a), engine.strings.entity_name(b))
               for a, b in record.result.rows}
    assert decoded <= timeless_po
    stats = collect_stats(engine)
    assert stats.clock_ms == 4_000
    assert stats.format()
