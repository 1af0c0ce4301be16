"""The 50-tick workload under which recovery equivalence is checked.

Re-uses the determinism workload's data generators and continuous queries
(arithmetic, RNG-free — the golden chaos file must not depend on any
process state), but builds the engine with fault tolerance on: a durable
log, grid-aligned checkpoints every 1 s (10 ticks) and replayable sources.

All registered queries are *continuous* and their stored patterns touch
static-only predicates (``fo``, ``ty``, ``livesIn`` — never a streamed
one).  That constraint matters: window closes missed while degraded are
caught up at a later, higher stable SN, and the equivalence harness
demands their meters match the never-faulted run outside the opaque
interval — which holds exactly because those stored reads see value lists
no streamed insert ever appends to.  (One-shot queries have no such
catch-up story; the proxy retry tests cover their failure semantics
instead.)
"""

from __future__ import annotations

import os

from core.determinism_workload import (CONTINUOUS_QUERIES, _like_tuples,
                                       _static_triples, _tweet_tuples)
from repro.chaos.plan import (CorruptRecord, DelayMessage, FaultPlan,
                              KillNode, Straggler)
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

#: Ticks per run (100 ms each); fault plans must heal well before this.
TICKS = 50

#: Checkpoint grid in ticks (checkpoint_interval_ms / batch_interval_ms).
TICKS_PER_CHECKPOINT = 10

STREAMS = ("Tweet_Stream", "Like_Stream")

NUM_NODES = 2


def build_engine(register_queries: bool = True,
                 fault_tolerance: bool = True) -> WukongSEngine:
    """A fresh fault-tolerant engine with sources and queries in place.

    Deterministic by construction: the equivalence harness calls this
    twice (golden + chaotic) and compares the runs bit for bit.  With
    ``register_queries=False`` the engine comes up with sources attached
    but no continuous queries — the serving chaos suite registers its own
    subscriptions through the serving layer instead.  With
    ``fault_tolerance=False`` there is no durable log (message faults
    only: nothing could recover a killed node).
    """
    config = EngineConfig(num_nodes=NUM_NODES, batch_interval_ms=100,
                          use_rdma=True, gc_every_ticks=10,
                          gc_retention_ms=4_000,
                          fault_tolerance=fault_tolerance,
                          checkpoint_interval_ms=1_000)
    engine = WukongSEngine(
        schemas=[StreamSchema("Tweet_Stream", frozenset({"ga"})),
                 StreamSchema("Like_Stream")],
        config=config)
    engine.load_static(parse_triples(_static_triples()))
    tweets = StreamSource(engine.schemas["Tweet_Stream"])
    tweets.queue_tuples(parse_timed_tuples(_tweet_tuples()), 0, 100)
    likes = StreamSource(engine.schemas["Like_Stream"])
    likes.queue_tuples(parse_timed_tuples(_like_tuples()), 0, 100)
    engine.attach_source(tweets)
    engine.attach_source(likes)
    if register_queries:
        for text in CONTINUOUS_QUERIES.values():
            engine.register_continuous(text)
    return engine


#: Where the chaos golden lives (regenerated by scripts/regen_goldens.py).
GOLDEN_CHAOS_PATH = os.path.join(os.path.dirname(__file__),
                                 "golden_chaos.json")


def golden_plan() -> FaultPlan:
    """The hand-written, RNG-free plan behind ``golden_chaos.json``.

    Exercises all four fault families in one run: a held message early, a
    corrupt-then-kill pair inside checkpoint window 3 (ticks 21-30), and a
    straggler after the heal.  Every tick below is a literal constant so
    the golden fingerprints cannot drift with RNG or workload changes
    without the regen script noticing.
    """
    plan = FaultPlan(
        faults=[DelayMessage(stream="Like_Stream", batch_no=9,
                             hold_ticks=2),
                CorruptRecord(at_tick=23, node_id=1),
                KillNode(at_tick=26, node_id=1, down_ticks=4),
                Straggler(at_tick=35, node_id=0, factor=2.0,
                          duration_ticks=4)],
        name="golden")
    plan.validate(NUM_NODES, STREAMS, TICKS,
                  ticks_per_checkpoint=TICKS_PER_CHECKPOINT)
    return plan
