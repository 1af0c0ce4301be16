"""Differential properties of FROM SNAPSHOT queries.

* A ``FROM SNAPSHOT <latest>`` query is bit-identical to its plain
  one-shot twin: same rows in the same order, same simulated charges,
  and neither execution mutates the engine (state digests equal).
* A snapshot query's answer is immutable: re-asking at the same
  snapshot after arbitrary further ingestion returns the same rows
  (scalarization is disabled so deep history stays readable).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.state import engine_state_digest
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema
from streams.helpers import timed

pytestmark = pytest.mark.temporal

USERS = ["u0", "u1", "u2", "u3"]
STATIC = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u3 .\nu3 fo u0 ."

QUERIES = [
    "SELECT ?U ?P WHERE { ?U po ?P }",
    "SELECT ?P WHERE { u0 po ?P }",
    "SELECT ?F ?P WHERE { u0 fo ?F . ?F po ?P }",
]


def event_strategy():
    return st.tuples(
        st.sampled_from(USERS),          # actor
        st.integers(0, 5),               # post id
        st.integers(0, 5),               # batch index (1s batches)
    )


def build_engine(events, scalarization=True):
    posts = timed((actor, "po", f"t{post_id}", batch * 1000 + 500)
                  for actor, post_id, batch in sorted(events,
                                                      key=lambda e: e[2]))
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000,
                            scalarization=scalarization))
    engine.load_static(parse_triples(STATIC))
    source = StreamSource(engine.schemas["Posts"])
    source.queue_tuples(posts, 0, 1000)
    engine.attach_source(source)
    return engine


def snapshot_twin(query: str, snapshot: int) -> str:
    return query.replace("WHERE", f"FROM SNAPSHOT <{snapshot}> WHERE", 1)


@settings(max_examples=12, deadline=None)
@given(events=st.lists(event_strategy(), max_size=20),
       query=st.sampled_from(QUERIES))
def test_snapshot_at_latest_is_bit_identical(events, query):
    engine = build_engine(events)
    engine.run_until(7_000)

    plain = engine.oneshot(query)
    digest_before = engine_state_digest(engine)
    twin = engine.oneshot(snapshot_twin(query, plain.snapshot))
    digest_after = engine_state_digest(engine)

    assert twin.result.rows == plain.result.rows
    assert twin.result.variables == plain.result.variables
    assert twin.meter.ns == plain.meter.ns
    assert twin.snapshot == plain.snapshot
    assert digest_after == digest_before
    # Any produced row came from counted snapshot reads.
    if plain.result.rows:
        assert twin.snapshot_reads >= 1


@settings(max_examples=10, deadline=None)
@given(events=st.lists(event_strategy(), min_size=1, max_size=16),
       query=st.sampled_from(QUERIES))
def test_snapshot_results_immutable_under_ingestion(events, query):
    engine = build_engine(events, scalarization=False)
    engine.run_until(3_000)

    snapshot = engine.coordinator.stable_sn
    first = engine.oneshot(snapshot_twin(query, snapshot))

    # Keep ingesting well past the pinned snapshot...
    engine.run_until(7_000)
    assert engine.coordinator.stable_sn >= snapshot

    # ...and the answer at that snapshot must not move, while the live
    # answer is free to grow.
    again = engine.oneshot(snapshot_twin(query, snapshot))
    live = engine.oneshot(query)
    assert again.result.rows == first.result.rows
    assert set(live.result.rows) >= set(first.result.rows)


def test_pins_released_after_execution():
    engine = build_engine([("u0", 1, 0), ("u1", 2, 1)])
    engine.run_until(4_000)
    engine.oneshot(snapshot_twin(QUERIES[0], engine.coordinator.stable_sn))
    assert engine.coordinator.pinned_snapshots == {}
