"""Backfill for the lazy-floor TopK sketch eviction (PR 6).

``_TopKSketch`` replaced an O(capacity) ``min`` per eviction with a
lazily maintained *cohort* of floor-count keys; ``bump_many`` counts one
arrival-ordered run per call.  The contract is that the
optimization is invisible: victim choice — and with it every count the
sketch ever reports — must be bit-identical to the eager space-saving
reference (evict the dict-order-first key holding the minimum count).
These tests pin that equivalence at the places it could break: cohort
boundaries (the floor rises mid-cohort), members bumped after capture
(must be skipped, not evicted), and adversarial interleavings.
"""

from __future__ import annotations

import random

from repro.store.kvstore import _TopKSketch


class EagerTopK:
    """The reference implementation: scan for the minimum on every
    eviction, first-inserted key winning ties (dict order)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.counts = {}

    def bump(self, vid: int) -> None:
        count = self.counts.get(vid)
        if count is not None:
            self.counts[vid] = count + 1
            return
        if len(self.counts) < self.capacity:
            self.counts[vid] = 1
            return
        victim = min(self.counts, key=self.counts.__getitem__)
        floor = self.counts[victim]
        del self.counts[victim]
        self.counts[vid] = floor + 1


def _assert_identical(sketch: _TopKSketch, eager: EagerTopK, context=""):
    # Item *order* included: dict order is the tie-break state, so equal
    # ordered items means every future victim decision agrees too.
    assert list(sketch.counts.items()) == list(eager.counts.items()), context


def _drive(sequence, capacity=4):
    sketch = _TopKSketch(capacity=capacity)
    eager = EagerTopK(capacity=capacity)
    for step, vid in enumerate(sequence):
        sketch.bump_many([vid])
        eager.bump(vid)
        _assert_identical(sketch, eager,
                          f"diverged at step {step} (vid {vid})")
    return sketch, eager


# -- hand-written cohort boundary cases -----------------------------------

def test_tie_break_is_first_inserted_at_cohort_capture():
    # Fill to capacity with an all-ties cohort, then force evictions:
    # victims must come out in insertion order 1, 2, 3, ...
    sketch, _ = _drive([1, 2, 3, 4, 10, 11, 12])
    # 1, 2, 3 evicted in order; entrants inherit floor 1 -> count 2.
    assert list(sketch.counts.items()) == [(4, 1), (10, 2), (11, 2), (12, 2)]


def test_bumped_cohort_member_is_skipped_not_evicted():
    # Capture the cohort (first eviction), then bump a later cohort
    # member: the lazy scan must skip it (its count left the floor) and
    # take the next in-order key still holding the floor.
    sequence = [1, 2, 3, 4,   # cohort at floor 1: [1, 2, 3, 4]
                10,           # evicts 1, cohort pos now at 2
                3,            # cohort member 3 leaves the floor
                11,           # must evict 2
                12]           # must skip 3 (count 2), evict 4
    sketch, _ = _drive(sequence)
    assert 3 in sketch.counts
    assert 2 not in sketch.counts and 4 not in sketch.counts


def test_floor_rises_across_cohort_exhaustion():
    # Exhaust the floor-1 cohort entirely; the next eviction must rescan
    # and find the new floor (2), not reuse the stale cohort.
    sequence = [1, 2, 3, 4,
                10, 11, 12, 13,  # evict 1..4; all residents now count 2
                20]              # floor must rise to 2; victim is 10
    sketch, _ = _drive(sequence)
    assert 10 not in sketch.counts
    assert sketch.counts[20] == 3  # inherits the new floor 2, plus one


def test_reinserting_an_evicted_key_restarts_from_floor():
    sequence = [1, 2, 3, 4, 10,  # evicts 1
                1]               # 1 re-enters as a fresh entrant
    sketch, _ = _drive(sequence)
    # Re-entry inherits the current floor + 1, like any entrant.
    assert sketch.counts[1] == 2


# -- adversarial interleavings -------------------------------------------

def test_alternating_evict_and_bump_storm():
    # Interleave fresh entrants (each forcing an eviction) with bumps of
    # survivors, so cohort captures are invalidated as fast as possible.
    sequence = []
    for wave in range(1, 40):
        sequence.append(100 + wave)       # fresh key -> eviction
        sequence.append(100 + wave)       # immediately bump it
        sequence.append(100 + wave - 1 if wave > 1 else 100 + wave)
    _drive(sequence, capacity=4)


def test_randomized_differential_small_key_space():
    # Small key space maximizes re-entry of previously evicted keys and
    # keeps many counts tied at the floor — the worst case for lazy
    # cohort bookkeeping.  Several seeds, step-by-step equality.
    for seed in range(6):
        rng = random.Random(seed)
        sequence = [rng.randrange(12) for _ in range(600)]
        _drive(sequence, capacity=4)


def test_randomized_differential_default_capacity():
    for seed in range(3):
        rng = random.Random(1000 + seed)
        sequence = [rng.randrange(30) for _ in range(800)]
        _drive(sequence, capacity=8)


def test_bump_many_equals_eager_bumps():
    # One run per call, cut at random points, so cohort state carries
    # across calls as it does across a shard's column writes.
    for seed in range(6):
        rng = random.Random(2000 + seed)
        sequence = [rng.randrange(14) for _ in range(500)]
        sketch = _TopKSketch(capacity=4)
        eager = EagerTopK(capacity=4)
        start = 0
        while start < len(sequence):
            end = start + rng.randrange(0, 40)
            sketch.bump_many(sequence[start:end])
            for vid in sequence[start:end]:
                eager.bump(vid)
            _assert_identical(sketch, eager, f"seed {seed}, run ending {end}")
            start = end


def test_estimate_matches_reference_for_tracked_and_untracked():
    sketch, eager = _drive([1, 1, 2, 3, 4, 5, 6], capacity=4)
    for vid in range(8):
        assert sketch.estimate(vid) == eager.counts.get(vid)
