"""Tests for durable checkpoints on disk and cold-start recovery."""

import dataclasses
import gc
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st
import pytest

from repro.chaos.state import diff_digests, engine_state_digest
from repro.core.durability import restore_engine, save_engine
from repro.core.engine import EngineConfig
from repro.errors import FaultToleranceError
from repro.rdf.parser import parse_timed_tuples
from repro.rdf.terms import Triple
from repro.serving.server import ServingLayer
from repro.sim.cost import CostModel, MemoryModel
from repro.sparql.ast import Query, TriplePattern, WindowSpec
from repro.streams.source import StreamSource

from chaos import chaos_workload
from core.test_engine import LIKES, QC, TWEETS, build_engine, names


@pytest.fixture
def checkpoint(tmp_path):
    return str(tmp_path / "engine.ckpt.json")


def ft_engine(**overrides):
    overrides.setdefault("fault_tolerance", True)
    return build_engine(**overrides)


def _fresh_source(engine, name):
    """A new upstream source for ``name``, as a restart would create it."""
    source = StreamSource(engine.schemas[name])
    text = TWEETS if name == "Tweet_Stream" else LIKES
    source.queue_tuples(parse_timed_tuples(text), 0, 1000)
    return source


def _resumed_sources(saved, fresh):
    """``fresh``'s sources where ``saved``'s stood: delivered through
    ``last_delivered`` and acknowledged through the same checkpoint, so
    upstream backup holds what it held at the save."""
    for name, source in fresh.sources.items():
        for _ in range(saved._last_delivered[name]):
            source.next_batch()
        source.ack(saved.sources[name].acked_through)
    return list(fresh.sources.values())


def _digest(engine):
    """The state digest minus the per-process execution counts."""
    digest = engine_state_digest(engine)
    for query in digest["queries"].values():
        del query["executions"]
    return digest


def _closes(engine, after_ms):
    """Rows, simulated cost and read snapshot of every close later than
    ``after_ms``."""
    return {(name, record.close_ms): (record.result.rows, record.meter.ps,
                                      record.snapshot)
            for name, handle in engine.continuous.queries.items()
            for record in handle.executions if record.close_ms > after_ms}


#: QC's tweets narrowed by a UNION: tagged sosp17, or liked by Erik.
UNION_QC = """
REGISTER QUERY QU AS
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 10s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  { GRAPH X-Lab { ?Z ht sosp17 } } UNION { GRAPH Like_Stream { Erik li ?Z } }
}
"""


class TestQuerySerialization:
    """A continuous query is saved as its text and re-parsed on restore."""

    @pytest.mark.parametrize("text", [
        QC,
        UNION_QC,
        "REGISTER QUERY QF AS SELECT ?X ?Z FROM Tweet_Stream "
        "[RANGE 10s STEP 1s] WHERE { GRAPH Tweet_Stream { ?X po ?Z } . "
        "FILTER (?Z != T-16) }",
        "REGISTER QUERY QO AS SELECT ?X ?Z ?T FROM Tweet_Stream "
        "[RANGE 10s STEP 1s] WHERE { GRAPH Tweet_Stream { ?X po ?Z } . "
        "OPTIONAL { ?Z ht ?T } }",
        "REGISTER QUERY QA AS SELECT ?X COUNT(?Z) AS ?n FROM Tweet_Stream "
        "[RANGE 10s STEP 1s] WHERE { GRAPH Tweet_Stream { ?X po ?Z } } "
        "GROUP BY ?X LIMIT 3",
    ])
    def test_roundtrip(self, text, checkpoint):
        engine = ft_engine()
        handle = engine.register_continuous(text)
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        again = revived.continuous.queries[handle.name]
        assert again.query == handle.query
        assert again.query.text == text

    def test_hand_built_query_is_refused(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(Query(
            select=["?X", "?Z"],
            patterns=[TriplePattern("?X", "po", "?Z", graph="Tweet_Stream")],
            windows={"Tweet_Stream": WindowSpec(10_000, 1_000)},
            name="QH"))
        engine.run_until(2_000)
        with pytest.raises(FaultToleranceError, match="QH"):
            save_engine(engine, checkpoint)


class TestDurableHandleState:
    """What a restored query handle keeps besides its text."""

    def test_serving_backing_name_survives(self, checkpoint):
        engine = ft_engine()
        ServingLayer(engine).register("tenant", QC)
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        assert list(revived.continuous.queries) == ["shared0"]

    def test_pinned_order_survives(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(QC, fixed_order=[2, 1, 0])
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        handle = restore_engine(checkpoint).continuous.queries["QC"]
        assert handle.pinned
        assert handle.plan_order == (2, 1, 0)

    def test_swapped_order_survives(self, checkpoint):
        engine = ft_engine()
        handle = engine.register_continuous(QC)
        engine.run_until(3_000)
        engine.continuous.swap_plan(handle, [2, 1, 0])
        save_engine(engine, checkpoint)
        again = restore_engine(checkpoint).continuous.queries["QC"]
        assert not again.pinned
        assert again.plan_order == (2, 1, 0)

    def test_gc_cadence_survives(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(4_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint,
                                 _resumed_sources(engine, ft_engine()))
        engine.run_until(12_000)
        revived.run_until(12_000)
        assert diff_digests(_digest(engine), _digest(revived)) == []

    def test_checkpoint_cadence_survives(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint,
                                 _resumed_sources(engine, ft_engine()))
        engine.run_until(6_000)
        revived.run_until(6_000)
        # The 6 s close pays the pause of the 6 s checkpoint, which runs
        # only if the restored manager kept its place on the grid.
        assert list(_closes(revived, 5_000)) == [("QC", 6_000)]
        assert _closes(revived, 5_000) == _closes(engine, 5_000)

    def test_edited_record_is_refused(self, checkpoint):
        engine = ft_engine()
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        record = next(item for item in data["log"] if item["halves"][0][0])
        record["halves"][0][2][0] += 1  # the first out-edge's object vid
        with open(checkpoint, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(FaultToleranceError, match="corrupt"):
            restore_engine(checkpoint)

    def test_edited_record_is_rebuilt_from_upstream(self, checkpoint,
                                                    tmp_path):
        """Recovery's own replay: a record upstream backup still holds is
        rebuilt from it, and the log comes back clean."""
        engine = ft_engine(checkpoint_interval_ms=10_000)  # nothing acked
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        clean_log = json.loads(json.dumps(data["log"]))
        record = next(item for item in data["log"] if item["halves"][0][0])
        record["halves"][0][3][0] ^= 1  # the first out-edge's timestamp
        with open(checkpoint, "w") as handle:
            json.dump(data, handle)
        revived = restore_engine(checkpoint,
                                 _resumed_sources(engine, ft_engine()))
        assert diff_digests(_digest(engine), _digest(revived)) == []
        again = str(tmp_path / "again.ckpt.json")
        save_engine(revived, again)
        with open(again) as handle:
            assert json.load(handle)["log"] == clean_log


class TestColdStartEquivalence:
    """Cold start is recovery of every node: save -> restore -> run on
    matches never having saved (the sibling of DESIGN.md §5.3's
    recovery equivalence), on the chaos workload."""

    @settings(max_examples=25, deadline=None)
    @given(save_tick=st.integers(1, chaos_workload.TICKS - 1),
           crash=st.none() | st.integers(0, chaos_workload.NUM_NODES - 1),
           order=st.none() | st.permutations(range(3)))
    def test_restart_matches_never_saved(self, save_tick, crash, order):
        build = chaos_workload.build_engine
        never_saved, saved = build(), build()
        for engine in (never_saved, saved):
            for _ in range(save_tick):
                engine.step()
            if order is not None:  # QJ is the one three-pattern query
                engine.continuous.swap_plan(
                    engine.continuous.queries["QJ"], order)
        if crash is not None:
            saved.crash_node(crash)
            saved.recover_node(crash)
        save_ms = saved.clock.now_ms
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "engine.ckpt.json")
            save_engine(saved, path)
            revived = restore_engine(path, _resumed_sources(saved, build()))
        for engine in (never_saved, revived):
            engine.run_until(chaos_workload.TICKS
                             * engine.config.batch_interval_ms)
        assert _closes(revived, save_ms) == _closes(never_saved, save_ms)
        assert diff_digests(_digest(never_saved), _digest(revived)) == []


class TestSaveRestore:
    def test_oneshot_answers_survive_restart(self, checkpoint):
        engine = ft_engine()
        engine.run_until(5_000)
        probe = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"
        before = names(engine, engine.oneshot(probe, home_node=0).result.rows)

        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        after = names(revived, revived.oneshot(probe,
                                               home_node=0).result.rows)
        assert after == before == [("T-13",), ("T-15",)]

    def test_store_content_identical(self, checkpoint):
        engine = ft_engine()
        engine.run_until(6_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        for node_id in range(engine.cluster.num_nodes):
            old = engine.store.shards[node_id]
            new = revived.store.shards[node_id]
            assert {k: old.lookup_versions(k)[0]
                    for k in old.iter_keys()} == \
                {k: new.lookup_versions(k)[0] for k in new.iter_keys()}

    def test_clock_and_vts_restored(self, checkpoint):
        engine = ft_engine()
        engine.run_until(5_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        assert revived.clock.now_ms == engine.clock.now_ms
        assert revived.coordinator.stable_vts().as_dict() == \
            engine.coordinator.stable_vts().as_dict()
        assert revived.coordinator.stable_sn == engine.coordinator.stable_sn

    def test_continuous_queries_resume(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        save_engine(engine, checkpoint)

        revived = restore_engine(checkpoint)
        assert "QC" in revived.continuous.queries
        handle = revived.continuous.queries["QC"]
        assert handle.next_close_ms == \
            engine.continuous.queries["QC"].next_close_ms
        # Locality-aware replication was re-established.
        assert revived.registry.is_local("Tweet_Stream", handle.home_node)
        # Processing resumes over the recovered state (sources would be
        # re-attached upstream; auto-padding keeps the timeline moving).
        records = revived.run_until(7_000)
        assert [rec.close_ms for rec in records] == [6_000, 7_000]
        # The 10s tweet window still reaches the recovered T-15 data.
        requirement = handle.requirement_at(6_000)
        assert revived.coordinator.stable_vts().covers(requirement)

    def test_union_query_survives_restart(self, checkpoint):
        engine = ft_engine()
        engine.register_continuous(UNION_QC)
        engine.run_until(5_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        handle = revived.continuous.queries["QU"]
        assert handle.query == engine.continuous.queries["QU"].query
        # The last close, re-run on the revived engine, answers the same.
        last = engine.continuous.queries["QU"].executions[-1]
        again = revived.continuous.execute_once(handle, last.close_ms)
        assert names(revived, again.result.rows) == \
            names(engine, last.result.rows) == [("Logan", "T-15")]
        assert again.meter.ps == last.meter.ps

    def test_every_config_field_survives_restart(self, checkpoint):
        engine = ft_engine(
            num_nodes=3, use_rdma=False, plan_width=2, scalarization=False,
            injector_threads=2, gc_every_ticks=3, gc_retention_ms=2_000,
            checkpoint_interval_ms=2_000, tracing=True, adaptive_replan=True,
            replan_check_closes=3,
            cost=CostModel(hash_probe_ns=CostModel().hash_probe_ns + 1),
            memory=MemoryModel(entry_bytes=MemoryModel().entry_bytes + 1))
        default = EngineConfig()
        for f in dataclasses.fields(EngineConfig):
            assert getattr(engine.config, f.name) != \
                getattr(default, f.name), f.name
        engine.run_until(3_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        assert revived.config == engine.config

    def test_unknown_config_setting_rejected(self, checkpoint):
        engine = ft_engine()
        engine.run_until(2_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        data["config"]["no_such_setting"] = 2
        with open(checkpoint, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(FaultToleranceError, match="no_such_setting"):
            restore_engine(checkpoint)

    def test_save_requires_fault_tolerance(self, checkpoint):
        engine = build_engine()  # fault_tolerance=False
        engine.run_until(2_000)
        with pytest.raises(FaultToleranceError):
            save_engine(engine, checkpoint)

    def test_multi_node_base_round_trips(self, checkpoint):
        engine = ft_engine(num_nodes=3)
        engine.run_until(3_000)
        assert all(shard.num_entries for shard in engine.store.shards)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            base = engine.checkpoints.base
            assert json.load(handle)["base"] == [base.s, base.p, base.o]
        revived = restore_engine(checkpoint)
        assert revived.checkpoints.base == base
        assert diff_digests(_digest(engine), _digest(revived)) == []

    @pytest.mark.parametrize("tamper", [
        lambda base, data: base[2].pop(),                      # truncated
        lambda base, data: base.pop(),                         # two columns
        lambda base, data: base[0].__setitem__(0, len(data["entities"])),
        lambda base, data: base[1].__setitem__(0, 0),          # no eid 0
        lambda base, data: base[2].__setitem__(0, str(base[2][0])),
    ], ids=["truncated", "two-columns", "unknown-vid", "eid-zero",
            "string-id"])
    def test_tampered_base_is_refused(self, checkpoint, tamper):
        save_engine(ft_engine(), checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        tamper(data["base"], data)
        with open(checkpoint, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(FaultToleranceError, match="checkpoint base"):
            restore_engine(checkpoint)

    def test_static_triples_not_kept_without_log(self):
        """Without a durable log nothing holds static data past the
        store: once the caller drops its triples, none is reachable."""
        engine = build_engine()  # fault_tolerance=False
        triples = [Triple(f"held{i}", "p", f"kept{i}") for i in range(3)]
        assert engine.load_static(triples) == 3
        del triples
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, Triple)
                    and obj.subject.startswith("held")]

    def test_version_mismatch_rejected(self, checkpoint):
        engine = ft_engine()
        engine.run_until(2_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        # Before the log records; six more settings; the base as strings.
        for version in (2, 3, 4):
            data["version"] = version
            with open(checkpoint, "w") as handle:
                json.dump(data, handle)
            with pytest.raises(FaultToleranceError, match="version"):
                restore_engine(checkpoint)

    def test_restore_preserves_source_attachment_order(self, checkpoint):
        """Regression: the dump records the attachment order, and restore
        must honour it even when the caller hands sources over in a
        different (say, sorted) order.  Attachment order is part of the
        engine's durable identity — padding and batch pulls iterate the
        sources dict, so a reordered restore would diverge from the
        original timeline."""
        engine = ft_engine()
        engine.run_until(4_000)
        # build_engine attaches Tweet_Stream before Like_Stream: the
        # attachment order is *not* the sorted order.
        attached = list(engine.sources)
        assert attached == ["Tweet_Stream", "Like_Stream"]
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            assert json.load(handle)["sources"] == attached

        fresh = [_fresh_source(engine, name)
                 for name in sorted(engine.schemas)]  # wrong order on purpose
        revived = restore_engine(checkpoint, sources=fresh)
        assert list(revived.sources) == attached

    def test_restore_attaches_unknown_sources_in_name_order(
            self, checkpoint):
        engine = ft_engine()
        engine.run_until(2_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            data = json.load(handle)
        data["sources"] = []  # an old dump without the recorded order
        with open(checkpoint, "w") as handle:
            json.dump(data, handle)
        fresh = [_fresh_source(engine, name)
                 for name in ("Tweet_Stream", "Like_Stream")]
        revived = restore_engine(checkpoint, sources=fresh)
        assert list(revived.sources) == ["Like_Stream", "Tweet_Stream"]

    def test_double_restore_is_idempotent(self, checkpoint, tmp_path):
        """save -> restore -> save must reproduce the dump bit for bit
        (before the attachment-order fix, the second dump recorded the
        caller's re-attachment order instead of the original)."""
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        save_engine(engine, checkpoint)
        with open(checkpoint) as handle:
            first = json.load(handle)

        revived = restore_engine(
            checkpoint, sources=[_fresh_source(engine, name)
                                 for name in sorted(engine.schemas)])
        second_path = str(tmp_path / "second.ckpt.json")
        save_engine(revived, second_path)
        with open(second_path) as handle:
            second = json.load(handle)
        assert second == first

        # And the twice-removed engine still answers like the original.
        again = restore_engine(
            second_path, sources=[_fresh_source(engine, name)
                                  for name in sorted(engine.schemas)])
        probe = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"
        assert names(again, again.oneshot(probe, home_node=0).result.rows) \
            == names(engine, engine.oneshot(probe, home_node=0).result.rows)

    def test_time_scoped_queries_survive(self, checkpoint):
        engine = ft_engine(gc_every_ticks=0)
        engine.run_until(6_000)
        save_engine(engine, checkpoint)
        revived = restore_engine(checkpoint)
        record = revived.oneshot_time_scoped(
            "SELECT ?U ?T FROM Tweet_Stream [RANGE 1s STEP 1s] "
            "WHERE { GRAPH Tweet_Stream { ?U po ?T } }", 2_000, 3_000)
        assert names(revived, record.result.rows) == [("Logan", "T-15")]
