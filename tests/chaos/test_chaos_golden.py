"""The chaos golden: a pinned multi-fault run, reproduced exactly.

``golden_chaos.json`` records the chronicle of the hand-written
:func:`~chaos.chaos_workload.golden_plan` (hold, corrupt, kill, recover,
straggle — all four fault families over the RNG-free 50-tick workload):
every chaos event with its tick and simulated millisecond, every gap
marker with its resolution time, the recovery report, and SHA-256
fingerprints of the full result set and final state digest.  Replaying
the plan must reproduce the file field for field in any process — the
chaos machinery itself is deterministic, not just fault-free execution.

Regenerate deliberately with ``scripts/regen_goldens.py``.
"""

import json

import pytest

from chaos.chaos_workload import (GOLDEN_CHAOS_PATH, TICKS, build_engine,
                                  golden_plan)
from repro.chaos import chaos_run_facts

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def facts():
    recomputed = chaos_run_facts(build_engine, golden_plan(), TICKS)
    return json.loads(json.dumps(recomputed, sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_CHAOS_PATH) as handle:
        return json.load(handle)


def test_plan_and_window(facts, golden):
    assert facts["plan"] == golden["plan"]
    assert facts["ticks"] == golden["ticks"] == TICKS
    assert facts["first_fault_ms"] == golden["first_fault_ms"]
    assert facts["heal_ms"] == golden["heal_ms"]


def test_event_chronicle_is_exact(facts, golden):
    assert facts["events"] == golden["events"]


def test_gap_ledger_is_exact(facts, golden):
    assert facts["gaps"] == golden["gaps"]
    assert golden["gaps"], "the golden plan must miss at least one close"
    assert all(gap["resolved_ms"] is not None for gap in golden["gaps"])


def test_recovery_reports_are_exact(facts, golden):
    assert facts["recoveries"] == golden["recoveries"]
    # The corrupt record was detected and rebuilt during replay.
    assert sum(rep["rejected_entries"]
               for rep in golden["recoveries"]) == 1
    assert any(rep["rebuilt"] for rep in golden["recoveries"])


def test_result_and_state_fingerprints(facts, golden):
    assert facts["rows_sha256"] == golden["rows_sha256"]
    assert facts["latency_sha256"] == golden["latency_sha256"]
    assert facts["state_sha256"] == golden["state_sha256"]


def test_golden_exercises_every_fault_family(golden):
    kinds = {event["kind"] for event in golden["events"]}
    assert {"hold", "release", "corrupt", "kill", "recover",
            "straggle_on", "straggle_off"} <= kinds, kinds
