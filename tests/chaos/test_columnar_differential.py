"""Frozen-verdict check of the columnar window-close path under chaos.

The columnar window-close path — flat-column stream-index reads through
``ColumnarSlice`` and the ``WindowAccess`` batch hooks, with incremental
window deltas between closes — must keep producing what it produced at
the last commit where a row-kernel twin still ran beside it and agreed
(``golden_kernels.json``; cases in :mod:`store.kernel_cases`):

* the rows of every continuous execution (including catch-ups),
* the simulated meters, total and per-category breakdown,
* the injection records, and
* the engine state digest after a final GC pass,

fault-free and under a fault plan that kills a node in the middle of the
window-close schedule (so recovery, catch-up closes and delta-cache
resets all happen).
"""

import pytest

from store.kernel_cases import chaos_facts, frozen, run_chaos_workload

pytestmark = pytest.mark.chaos


def test_columnar_and_row_closes_identical_fault_free():
    engine = run_chaos_workload(faulted=False)
    assert {"chaos/fault-free": chaos_facts(engine)} == \
        frozen("chaos/fault-free")


def test_columnar_and_row_closes_identical_under_kill_during_close():
    engine = run_chaos_workload(faulted=True)
    # The kill must actually have disturbed the close schedule, or this
    # test degenerates into the fault-free case.
    assert any(handle.gaps
               for handle in engine.continuous.queries.values()), \
        "fault plan no longer disturbs any window close"
    assert {"chaos/kill-during-close": chaos_facts(engine)} == \
        frozen("chaos/kill-during-close")


def test_columnar_path_actually_ran_under_chaos():
    """Guard against the closes silently falling off the window views."""
    engine = run_chaos_workload(faulted=True)
    views = [view for handle in engine.continuous.queries.values()
             for view in handle.window_views.values()]
    assert views, "columnar run produced no window views"
    assert any(view.hits + view.misses > 0 for view in views)
    assert any(view.delta_hits > 0 for view in views)
