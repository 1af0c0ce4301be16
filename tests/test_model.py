"""One stateful model test across the subsystems.

A hypothesis state machine drives a two-node, fault-tolerant engine
through interleaved batch injection, plain one-shots (BGP / FILTER /
UNION / OPTIONAL), ``FROM SNAPSHOT`` reads, interval queries, GC +
compaction, a node kill with recovery, and a save -> restore that swaps
in the cold-started engine.  The model is the brute-force
oracle: after every read, the engine's decoded rows must equal
``reference_rows`` over the dumped history at the read's snapshot, as
sets; a snapshot outside ``[GC frontier, stable SN]`` must be refused
with the matching typed :class:`~repro.errors.TemporalError`; and no
read may leave a snapshot pinned.  The per-subsystem batteries each fix
the others; this is where they meet.
"""

import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import pytest

from repro.core.durability import restore_engine, save_engine
from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import (SnapshotBelowGCFrontierError,
                          SnapshotNotYetStableError)
from repro.rdf.parser import parse_triples
from repro.rdf.terms import TimedTuple, Triple
from repro.sparql.parser import parse_query
from repro.streams.source import StreamSource
from repro.streams.stream import StreamBatch, StreamSchema
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

USERS = ["u0", "u1", "u2", "u3"]
STATIC = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u3 .\nu3 fo u0 .\nu0 po t0 ."
INTERVAL_MS = 1000

actors = st.sampled_from(USERS)

#: Plain one-shots, one or two per clause family; ``{a}`` is a user.
ONESHOTS = [
    "SELECT ?U ?P WHERE {{ ?U po ?P }}",
    "SELECT ?F ?P WHERE {{ {a} fo ?F . ?F po ?P }}",
    "SELECT ?U ?P WHERE {{ ?U po ?P . FILTER (?U != {a}) }}",
    "SELECT ?X WHERE {{ {{ {a} po ?X }} UNION {{ {a} fo ?X }} }}",
    "SELECT ?U ?X WHERE {{ ?U fo {a} . {{ ?U po ?X }} UNION {{ ?U fo ?X }} }}",
    "SELECT ?U ?P ?T WHERE {{ ?U po ?P . OPTIONAL {{ ?P ht ?T }} }}",
    "SELECT ?P ?T WHERE {{ {a} po ?P . OPTIONAL {{ ?P ht ?T }} "
    "FILTER (?T = tag1) }}",
]

#: Interval queries; ``{lo}``/``{hi}`` bound a constant interval.
INTERVALS = [
    "SELECT ?U ?P ?ts WHERE {{ ?U po ?P [?ts, ?te) "
    "FILTER ([?ts, ?te) {op} [{lo}, {hi})) }}",
    "SELECT ?P ?ts WHERE {{ {a} po ?P [?ts, ?te) FILTER (?ts >= {lo}) }}",
    "SELECT ?F ?P ?pts WHERE {{ {a} fo ?F [?fts, ?fte) . "
    "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }}",
]


class EngineVsOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = WukongSEngine(
            schemas=[StreamSchema("Posts")],
            config=EngineConfig(num_nodes=2, batch_interval_ms=INTERVAL_MS,
                                fault_tolerance=True,
                                checkpoint_interval_ms=2 * INTERVAL_MS))
        self.engine.load_static(parse_triples(STATIC))
        self.source = StreamSource(self.engine.schemas["Posts"])
        self.engine.attach_source(self.source)
        self.ticks = 0

    def tick(self, triples=()):
        """Queue the next batch (every tick has one, possibly empty, so
        the source's numbering tracks the clock) and advance one step."""
        start = self.ticks * INTERVAL_MS
        self.ticks += 1
        self.source.queue(StreamBatch(
            "Posts", self.ticks, start, start + INTERVAL_MS,
            [TimedTuple(triple, start + 500) for triple in triples]))
        self.engine.step()

    def check(self, text):
        """Run ``text`` and compare with the oracle at its snapshot."""
        record = self.engine.oneshot(text)
        ast = parse_query(text)
        expected = reference_rows(ast, dump_history(self.engine.store),
                                  record.snapshot)
        decoded = decode_result(record.result, self.engine.strings)
        assert sorted(map(repr, decoded)) == sorted(map(repr, expected)), \
            text

    # -- writes ---------------------------------------------------------
    @rule(posts=st.lists(st.tuples(actors, st.integers(1, 5),
                                   st.booleans()), max_size=4))
    def inject_batch(self, posts):
        triples = []
        for actor, post, tagged in posts:
            triples.append(Triple(actor, "po", f"t{post}"))
            if tagged:
                triples.append(Triple(f"t{post}", "ht", f"tag{post % 2}"))
        self.tick(triples)

    @rule()
    def gc_and_compact(self):
        self.engine.gc.run(self.engine.clock.now_ms)
        self.engine.coordinator.advance(self.engine.store)

    @rule(down_ticks=st.integers(0, 2))
    def kill_and_recover(self, down_ticks):
        self.engine.crash_node(1)
        for _ in range(down_ticks):
            self.tick([Triple("u1", "po", "t5")])
        self.engine.recover_node(1)
        self.tick()  # the first healthy tick drains what piled up

    @rule()
    def save_and_restore(self):
        """Cold start: later reads run on the restored engine, fed by the
        same source."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "engine.ckpt.json")
            save_engine(self.engine, path)
            self.engine = restore_engine(path, sources=[self.source])

    # -- reads ------------------------------------------------------------
    @rule(template=st.sampled_from(ONESHOTS), a=actors)
    def oneshot(self, template, a):
        self.check(template.format(a=a))

    @rule(template=st.sampled_from(ONESHOTS), a=actors,
          back=st.integers(-1, 4))
    def from_snapshot(self, template, a, back):
        coordinator = self.engine.coordinator
        snapshot = max(0, coordinator.stable_sn - back)
        text = template.format(a=a).replace(
            "WHERE", f"FROM SNAPSHOT <{snapshot}> WHERE", 1)
        if snapshot < coordinator.compacted_through:
            with pytest.raises(SnapshotBelowGCFrontierError):
                self.engine.oneshot(text)
        elif snapshot > coordinator.stable_sn:
            with pytest.raises(SnapshotNotYetStableError):
                self.engine.oneshot(text)
        else:
            self.check(text)

    @rule(template=st.sampled_from(INTERVALS), a=actors,
          op=st.sampled_from(["OVERLAPS", "DURING", "BEFORE", "AFTER",
                              "STARTS"]),
          lo=st.integers(0, 5), width=st.integers(1, 5))
    def interval(self, template, a, op, lo, width):
        self.check(template.format(a=a, op=op, lo=lo, hi=lo + width))

    @invariant()
    def pins_released(self):
        assert self.engine.coordinator.pinned_snapshots == {}


TestEngineVsOracle = EngineVsOracle.TestCase
TestEngineVsOracle.settings = settings(max_examples=20,
                                       stateful_step_count=12,
                                       deadline=None)
