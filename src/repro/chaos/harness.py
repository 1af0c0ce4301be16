"""The recovery-equivalence harness.

:func:`run_equivalence` runs one workload twice — once untouched, once
under a :class:`~repro.chaos.plan.FaultPlan` — and checks the headline
invariant of the fault model: after every fault has healed, the chaotic
engine's query results and queryable state are **bit-identical** to the
never-faulted run's.

What must match, and where:

* **Rows** of every continuous execution: identical everywhere, including
  the catch-up executions of window closes missed while degraded.
* **State digest** (:func:`~repro.chaos.state.engine_state_digest`): equal
  after a final GC pass on both engines (interim GC floors differ while a
  run is degraded — the floors are monotone and converge, the final pass
  realigns both sides).
* **Injection records** (order, content and simulated cost): identical,
  except under straggler faults, whose whole point is to surcharge
  injection meters — there only the order/content projection must match.
* **Execution meters**: identical outside the *opaque interval*
  ``[first_fault_ms, next checkpoint-grid boundary after the last
  heal]``.  Inside it, checkpoint-pause surcharges legitimately differ (a
  degraded run skips checkpoints, so entries-since-checkpoint — and the
  pause the next checkpoint charges — diverge until the grid realigns);
  rows still match even there.

Gap accounting is also checked: the chaotic run must report a gap marker
for every missed close and resolve every one of them by the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan
from repro.chaos.state import (diff_digests, digest_sha256,
                               engine_state_digest)
from repro.core.engine import WukongSEngine


def _meter_facts(meter) -> List:
    return [meter.ps, dict(sorted(meter.breakdown_ps.items()))]


def _execution_facts(engine: WukongSEngine) -> Dict[str, List]:
    return {
        name: [[rec.close_ms, list(rec.result.variables),
                [list(row) for row in rec.result.rows]]
               + _meter_facts(rec.meter)
               for rec in handle.executions]
        for name, handle in sorted(engine.continuous.queries.items())
    }


def execution_fingerprints(executions: Dict[str, List]) -> Dict[str, str]:
    """Two fingerprints of :func:`_execution_facts`, so a golden diff
    shows which half moved: the rows (close, variables, row list) and the
    latencies (close, meter total, breakdown)."""
    return {
        "rows_sha256": digest_sha256(
            {name: [record[:3] for record in records]
             for name, records in executions.items()}),
        "latency_sha256": digest_sha256(
            {name: [record[:1] + record[3:] for record in records]
             for name, records in executions.items()}),
    }


def _injection_facts(engine: WukongSEngine, with_meters: bool) -> List:
    return [[rec.stream, rec.batch_no, rec.num_tuples]
            + (_meter_facts(rec.meter) if with_meters else [])
            for rec in engine.injection_records]


@dataclass
class EquivalenceReport:
    """The verdict of one faulted-vs-golden comparison."""

    plan: FaultPlan
    ticks: int
    first_fault_ms: Optional[int]
    heal_ms: Optional[int]
    #: End of the opaque interval: the first checkpoint-grid boundary at
    #: or after the last heal.  Meters of executions closing inside
    #: ``[first_fault_ms, opaque_end_ms]`` are not compared.
    opaque_end_ms: Optional[int]
    events: List[dict] = field(default_factory=list)
    gaps: List[dict] = field(default_factory=list)
    recoveries: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else \
            f"{len(self.mismatches)} MISMATCHES"
        window = "no faults fired" if self.first_fault_ms is None else \
            f"opaque [{self.first_fault_ms}, {self.opaque_end_ms}] ms"
        return (f"plan {self.plan.name or '?'} "
                f"({'+'.join(self.plan.kinds)}): {verdict}; {window}; "
                f"{len(self.gaps)} gaps, {self.recoveries} recoveries")


def run_equivalence(build_engine: Callable[[], WukongSEngine],
                    plan: FaultPlan, ticks: int) -> EquivalenceReport:
    """Run the workload fault-free and faulted; compare exhaustively.

    ``build_engine`` must return a fresh engine with all sources attached
    and all continuous queries registered; it is called twice and must be
    deterministic.  The chaotic run drives the same number of ticks, so
    both clocks end at the same instant.
    """
    golden = build_engine()
    for _ in range(ticks):
        golden.step()
    golden.gc.run(golden.clock.now_ms)

    chaotic = build_engine()
    controller = ChaosController(plan)
    controller.attach(chaotic, ticks=ticks)
    for _ in range(ticks):
        chaotic.step()
    chaotic.gc.run(chaotic.clock.now_ms)

    interval = chaotic.config.checkpoint_interval_ms
    first_fault_ms = controller.first_fault_ms
    heal_ms = controller.heal_ms
    opaque_end_ms: Optional[int] = None
    if first_fault_ms is not None:
        last_heal = heal_ms if heal_ms is not None else first_fault_ms
        opaque_end_ms = (last_heal // interval + 1) * interval

    report = EquivalenceReport(
        plan=plan, ticks=ticks, first_fault_ms=first_fault_ms,
        heal_ms=heal_ms, opaque_end_ms=opaque_end_ms,
        events=[event.as_dict() for event in controller.events],
        recoveries=len(controller.reports))
    problems = report.mismatches

    if controller.outstanding:
        problems.append(f"plan did not fully play out: "
                        f"{controller.outstanding} effects outstanding")

    # 1. Results: rows everywhere; meters outside the opaque interval.
    golden_execs = _execution_facts(golden)
    chaos_execs = _execution_facts(chaotic)
    if sorted(golden_execs) != sorted(chaos_execs):
        problems.append(f"query sets differ: {sorted(golden_execs)} vs "
                        f"{sorted(chaos_execs)}")
    for name in sorted(set(golden_execs) & set(chaos_execs)):
        gold, chaos = golden_execs[name], chaos_execs[name]
        if len(gold) != len(chaos):
            problems.append(f"{name}: {len(gold)} vs {len(chaos)} "
                            f"executions")
            continue
        for g, c in zip(gold, chaos):
            close_ms = g[0]
            if g[:3] != c[:3]:
                problems.append(f"{name}@{close_ms}: rows differ: "
                                f"{g[:3]!r} vs {c[:3]!r}")
            opaque = first_fault_ms is not None and \
                first_fault_ms <= close_ms <= opaque_end_ms
            if not opaque and g[3:] != c[3:]:
                problems.append(f"{name}@{close_ms}: meters differ "
                                f"outside the opaque interval: "
                                f"{g[3:]!r} vs {c[3:]!r}")

    # 2. Injection records: full equality, or order/content only when the
    #    plan straggles an injector (the one fault that taxes this meter).
    with_meters = not plan.has_straggler
    gold_inj = _injection_facts(golden, with_meters)
    chaos_inj = _injection_facts(chaotic, with_meters)
    if gold_inj != chaos_inj:
        for i, (g, c) in enumerate(zip(gold_inj, chaos_inj)):
            if g != c:
                problems.append(f"injection[{i}] differs: {g!r} vs {c!r}")
                break
        if len(gold_inj) != len(chaos_inj):
            problems.append(f"injection count {len(gold_inj)} vs "
                            f"{len(chaos_inj)}")

    # 3. State: the full digests, post final GC on both sides.
    problems.extend(diff_digests(engine_state_digest(golden),
                                 engine_state_digest(chaotic)))

    # 4. Gap accounting on the chaotic side.
    for name, handle in sorted(chaotic.continuous.queries.items()):
        for marker in handle.gaps:
            report.gaps.append({
                "query": name, "close_ms": marker.close_ms,
                "noted_ms": marker.noted_ms, "reason": marker.reason,
                "resolved_ms": marker.resolved_ms})
            if not marker.resolved:
                problems.append(f"unresolved gap: {name}@{marker.close_ms}")
    for name, handle in sorted(golden.continuous.queries.items()):
        if handle.gaps:
            problems.append(f"fault-free run reported gaps for {name}")
    return report


def chaos_run_facts(build_engine: Callable[[], WukongSEngine],
                    plan: FaultPlan, ticks: int) -> Dict:
    """A JSON-safe record of one chaotic run, for golden files.

    Runs only the faulted side (no golden comparison) and captures the
    chaos chronicle plus fingerprints of the results and final state.
    The workload and plan must be RNG-free or drawn from ``stable_rng``
    for the fingerprints to be stable across processes.
    """
    engine = build_engine()
    controller = ChaosController(plan)
    controller.attach(engine, ticks=ticks)
    for _ in range(ticks):
        engine.step()
    engine.gc.run(engine.clock.now_ms)
    gaps = []
    for name, handle in sorted(engine.continuous.queries.items()):
        for marker in handle.gaps:
            gaps.append({"query": name, "close_ms": marker.close_ms,
                         "noted_ms": marker.noted_ms,
                         "reason": marker.reason,
                         "resolved_ms": marker.resolved_ms})
    return {
        "plan": plan.describe(),
        "ticks": ticks,
        "first_fault_ms": controller.first_fault_ms,
        "heal_ms": controller.heal_ms,
        "events": [event.as_dict() for event in controller.events],
        "gaps": gaps,
        "recoveries": [{"node_id": rep.node_id,
                        "replayed_entries": rep.replayed_entries,
                        "rejected_entries": rep.rejected_entries,
                        "rebuilt": [list(item)
                                    for item in rep.rebuilt_batches]}
                       for rep in controller.reports],
        **execution_fingerprints(_execution_facts(engine)),
        "state_sha256": digest_sha256(engine_state_digest(engine)),
    }
