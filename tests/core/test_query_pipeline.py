"""The query-compile seam (``repro.core.pipeline``): one bounded LRU
class behind every cache of the query path."""

import pytest

from repro.client.procedures import ProcedureCache
from repro.core.pipeline import CACHE_CAPACITY, LRUCache, QueryPipeline
from repro.sparql.parser import parse_query


def _text(i):
    return f"SELECT ?x WHERE {{ e{i} p ?x }}"


def _raw():
    cache = LRUCache()

    def touch(i):
        if cache.get(i) is None:
            cache.put(i, str(i))
    return cache, touch


def _texts():
    pipeline = QueryPipeline()
    return pipeline.texts, lambda i: pipeline.parse(_text(i))


def _plans():
    pipeline = QueryPipeline()
    return pipeline.plans, lambda i: pipeline.plan(parse_query(_text(i)))


def _procedures():
    cache = ProcedureCache()
    return cache, lambda i: cache.get(_text(i))


@pytest.mark.parametrize("make", [_raw, _texts, _plans, _procedures])
def test_lru_bound_victim_and_counters(make):
    """``touch(i)`` looks entry ``i`` up and fills it on a miss.  Under a
    flood of more distinct entries than the capacity the bound holds,
    the victim is the least recently *used* entry — entry 0, the oldest
    insert, is re-used throughout and survives — and every lookup and
    eviction is counted."""
    cache, touch = make()
    flood = CACHE_CAPACITY + 20
    touch(0)
    for i in range(1, flood):
        touch(i)
        touch(0)
        assert len(cache) <= CACHE_CAPACITY
    assert len(cache) == CACHE_CAPACITY
    assert (cache.hits, cache.misses, cache.evictions) == \
        (flood - 1, flood, 20)
    touch(0)
    touch(flood - 1)
    assert (cache.hits, cache.misses) == (flood + 1, flood)
    touch(1)  # the least recently used entry went first
    assert cache.misses == flood + 1


def test_plan_kinds_are_counted_apart_in_one_cache():
    pipeline = QueryPipeline()
    oneshot = parse_query("SELECT ?x WHERE { a p ?x }")
    interval = parse_query("SELECT ?x ?ts WHERE { a p ?x [?ts, ?te) }")
    windowed = parse_query(
        "SELECT ?x FROM S [RANGE 1s STEP 1s] WHERE { GRAPH S { a p ?x } }")
    for query in (oneshot, interval, interval, windowed):
        pipeline.plan(query)
    assert pipeline.plan_misses == \
        {"oneshot": 1, "continuous": 1, "interval": 1}
    assert pipeline.plan_hits == \
        {"oneshot": 0, "continuous": 0, "interval": 1}
    assert len(pipeline.plans) == 3
    # The kind is a counter label only: every kind compiles to the one
    # compiled form, and the quintuple step shows in the step itself.
    interval_form = pipeline.plan(interval).compiled
    oneshot_form = pipeline.plan(oneshot).compiled
    assert type(interval_form) is type(oneshot_form)
    assert interval_form.steps[0].ts_slot is not None
    assert oneshot_form.steps[0].ts_slot is None
