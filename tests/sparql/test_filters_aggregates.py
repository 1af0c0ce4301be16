"""Tests for FILTER expressions and aggregate parsing + evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, PlanError
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import PS_PER_NS, LatencyMeter
from repro.sparql.ast import OPEN_END, Aggregate, FilterExpr
from repro.sparql.evaluate import (aggregate_rows, apply_filters,
                                   filter_matches, filters_by_step,
                                   term_number)
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_query
from repro.store.executor import GraphExplorer, _Batch
from repro.temporal.reference import _filter_ok

OPS = ("=", "!=", "<", "<=", ">", ">=")


def run_filter(strings, where, expr, rows):
    """Compile ``expr`` into the plan of ``SELECT * <where>`` and run it
    over ``rows`` (variable -> vid or snapshot number; a missing or None
    cell is an unbound OPTIONAL variable): the kept row indices and the
    ``filter`` picoseconds charged."""
    query = parse_query(f"SELECT * {where}")
    query.filters = [expr]  # any constant, lexable or not (``1.0``)
    explorer = GraphExplorer(Cluster(num_nodes=1), strings)
    compiled = explorer._compile(plan_query(query))
    (cfilter,) = [f for step in compiled.cfilters_at for f in step] \
        + compiled.leftover_filters
    cols = [[row.get(var) for row in rows] for var in compiled.slots]
    cols = [None if column and all(cell is None for cell in column)
            else column for column in cols]
    kept = cfilter.select(cols, list(range(len(rows))),
                          strings.entity_name, strings.lookup_entity)
    meter = LatencyMeter()
    batch = _Batch(len(rows), cols)
    out = explorer._apply_step_filters_batch(batch, [cfilter], meter)
    assert out.cols == batch.select(kept).cols
    return kept, meter.breakdown_ps.get("filter", 0)


class TestParsing:
    def test_filter_parses(self):
        query = parse_query(
            "SELECT ?x ?y WHERE { ?x p ?y . FILTER (?y > 10) }")
        assert query.filters == [FilterExpr("?y", ">", "10")]

    def test_filter_in_graph_group(self):
        query = parse_query("""
            SELECT ?x ?v FROM S [RANGE 1s STEP 1s] WHERE {
                GRAPH S { ?x temp ?v . FILTER (?v >= 30) }
            }""")
        assert query.filters == [FilterExpr("?v", ">=", "30")]

    def test_all_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            query = parse_query(
                f"SELECT ?x ?y WHERE {{ ?x p ?y . FILTER (?y {op} 5) }}")
            assert query.filters[0].op == op

    def test_count_star(self):
        query = parse_query(
            "SELECT COUNT(*) AS ?n WHERE { ?x p ?y }")
        assert query.aggregates == [Aggregate("COUNT", None, "?n")]
        assert query.output_columns() == ["?n"]

    def test_group_by_aggregate(self):
        query = parse_query("""
            SELECT ?x COUNT(?y) AS ?n AVG(?y) AS ?mean
            WHERE { ?x p ?y } GROUP BY ?x""")
        assert len(query.aggregates) == 2
        assert query.group_by == ["?x"]
        assert query.output_columns() == ["?x", "?n", "?mean"]

    def test_iri_still_parses_next_to_comparisons(self):
        query = parse_query(
            "SELECT ?x ?y WHERE { ?x <p> ?y . FILTER (?y < 5) . "
            "FILTER (?y > 1) }")
        assert query.patterns[0].predicate == "p"
        assert len(query.filters) == 2

    def test_filter_unbound_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { ?x p o . FILTER (?z = 1) }")

    def test_bare_select_var_needs_group_by(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x COUNT(?y) AS ?n WHERE { ?x p ?y }")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { ?x p ?y } GROUP BY ?x")

    def test_sum_star_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT SUM(*) AS ?s WHERE { ?x p ?y }")

    def test_alias_collision_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(?y) AS ?x WHERE { ?x p ?y }")


#: Entity names: numeric ones in every spelling the constants use, and
#: ``Logan`` at vid 3, so a snapshot number 3 read as a vid, or the
#: constant ``3`` read as one, turns into a wrong verdict.
NAMES = ("Erik", "T-12", "Logan", "3", "01", "1.0", "10", "2")
#: A quintuple step binds ``?ts`` / ``?te`` (snapshot numbers), ``?x`` /
#: ``?y`` are vids and the OPTIONAL group's ``?o`` may stay unbound.
MIXED_WHERE = "WHERE { ?x p ?y [?ts, ?te) OPTIONAL { ?y q ?o } }"
OPERANDS = ("?ts", "?te", "?x", "?y", "?o", "3", "1.0", "01", "Logan")

vid_cells = st.integers(min_value=1, max_value=len(NAMES))
sn_cells = st.one_of(st.integers(min_value=0, max_value=12),
                     st.just(OPEN_END))
mixed_rows = st.lists(st.fixed_dictionaries({
    "?x": vid_cells, "?y": vid_cells, "?o": st.none() | vid_cells,
    "?ts": sn_cells, "?te": sn_cells}), max_size=12)


@settings(max_examples=500, deadline=None)
@given(left=st.sampled_from(OPERANDS), op=st.sampled_from(OPS),
       right=st.sampled_from(OPERANDS), rows=mixed_rows)
def test_compiled_filter_matches_the_oracle_on_every_operand_mix(
        left, op, right, rows):
    """SN x SN, SN x constant, SN x VID, VID x VID, VID x constant and an
    OPTIONAL's unbound VID, on all six operators: the compiled filter
    keeps exactly the rows the oracle's ``_filter_ok`` keeps, and the
    charge is ``filter_ns`` per row whatever the verdicts."""
    strings = StringServer()
    for name in NAMES:
        strings.entity_id(name)
    expr = FilterExpr(left, op, right)
    kept, filter_ps = run_filter(strings, MIXED_WHERE, expr, rows)
    want = []
    for index, row in enumerate(rows):
        oracle_row = {var: cell if var in ("?ts", "?te")
                      else strings.entity_name(cell)
                      for var, cell in row.items() if cell is not None}
        if _filter_ok(expr, oracle_row):
            want.append(index)
    assert kept == want
    assert filter_ps == len(rows) * Cluster(num_nodes=1).cost.filter_ns \
        * PS_PER_NS


class TestFilterEvaluation:
    def setup_method(self):
        self.strings = StringServer()
        self.v5 = self.strings.entity_id("5")
        self.v10 = self.strings.entity_id("10")
        self.logan = self.strings.entity_id("Logan")

    def match(self, expr, row):
        return filter_matches(expr, row, self.strings.entity_name,
                              self.strings.lookup_entity)

    def test_numeric_comparisons(self):
        row = {"?x": self.v5}
        assert self.match(FilterExpr("?x", "<", "10"), row)
        assert not self.match(FilterExpr("?x", ">", "10"), row)
        assert self.match(FilterExpr("?x", "<=", "5"), row)
        assert self.match(FilterExpr("?x", ">=", "5"), row)

    def test_equality_on_entities(self):
        row = {"?x": self.logan}
        assert self.match(FilterExpr("?x", "=", "Logan"), row)
        assert self.match(FilterExpr("?x", "!=", "Erik"), row)

    def test_var_to_var(self):
        row = {"?a": self.v5, "?b": self.v10}
        assert self.match(FilterExpr("?a", "<", "?b"), row)
        assert self.match(FilterExpr("?a", "!=", "?b"), row)

    def test_non_numeric_ordering_eliminates(self):
        row = {"?x": self.logan}
        assert not self.match(FilterExpr("?x", "<", "10"), row)

    def test_interval_variable_binding_is_its_number(self):
        """``?ts`` bound to 3 compares as the number 3 — never as vid 3's
        entity name — through the compiled filter, with the verdicts of
        the engine-independent oracle (``repro.temporal.reference``) on
        every operator."""
        assert self.strings.entity_name(3) == "Logan"
        where = "WHERE { ?x p ?who [?ts, ?te) }"
        row = {"?ts": 3, "?te": OPEN_END, "?x": self.v5,
               "?who": self.logan}
        oracle_row = {"?ts": 3, "?te": OPEN_END, "?x": "5", "?who": "Logan"}
        for op in OPS:
            for other in ("3", "2", "10", "Logan", "?x", "?who"):
                for left, right in (("?ts", other), (other, "?ts")):
                    expr = FilterExpr(left, op, right)
                    kept, _ = run_filter(self.strings, where, expr, [row])
                    assert bool(kept) == _filter_ok(expr, oracle_row), expr
        kept, _ = run_filter(self.strings, where,
                             FilterExpr("?ts", "=", "3"), [row])
        assert kept == [0]
        # Read as a vid, the same binding would be the entity.
        assert self.match(FilterExpr("?ts", "=", "Logan"), {"?ts": 3})

    def test_apply_filters_keeps_matching_rows(self):
        rows = [{"?x": self.v5}, {"?x": self.v10}]
        kept = apply_filters(rows, [FilterExpr("?x", ">", "7")],
                             self.strings.entity_name,
                             self.strings.lookup_entity)
        assert kept == [{"?x": self.v10}]

    def test_term_number(self):
        assert term_number("5") == 5.0
        assert term_number("-2.5") == -2.5
        assert term_number("Spots95") is None

    def test_filters_by_step_schedule(self):
        query = parse_query(
            "SELECT ?x ?y WHERE { a p ?x . ?x q ?y . FILTER (?y > 1) . "
            "FILTER (?x != b) }")
        schedule, leftover = filters_by_step(query, query.patterns)
        assert [f.op for f in schedule[0]] == ["!="]
        assert [f.op for f in schedule[1]] == [">"]
        assert leftover == []

    def test_filters_on_optional_vars_become_leftovers(self):
        query = parse_query(
            "SELECT ?x ?y WHERE { a p ?x . OPTIONAL { ?x q ?y } . "
            "FILTER (?y > 1) }")
        schedule, leftover = filters_by_step(query, query.patterns)
        assert schedule == [[]]
        assert [f.op for f in leftover] == [">"]


class TestAggregation:
    def setup_method(self):
        self.strings = StringServer()
        self.ids = {name: self.strings.entity_id(name)
                    for name in ("a", "b", "10", "20", "30", "zzz")}

    def rows(self, pairs):
        return [{"?g": self.ids[g], "?v": self.ids[v]} for g, v in pairs]

    def aggregate(self, text, rows):
        query = parse_query(text)
        return aggregate_rows(rows, query, self.strings.entity_name)

    def test_count_group_by(self):
        rows = self.rows([("a", "10"), ("a", "20"), ("b", "30")])
        out = self.aggregate(
            "SELECT ?g COUNT(?v) AS ?n WHERE { ?g p ?v } GROUP BY ?g", rows)
        assert out == [(self.ids["a"], 2), (self.ids["b"], 1)]

    def test_sum_and_avg(self):
        rows = self.rows([("a", "10"), ("a", "20")])
        out = self.aggregate(
            "SELECT ?g SUM(?v) AS ?s AVG(?v) AS ?m WHERE { ?g p ?v } "
            "GROUP BY ?g", rows)
        assert out == [(self.ids["a"], 30.0, 15.0)]

    def test_min_max_numeric(self):
        rows = self.rows([("a", "10"), ("a", "30")])
        out = self.aggregate(
            "SELECT ?g MIN(?v) AS ?lo MAX(?v) AS ?hi WHERE { ?g p ?v } "
            "GROUP BY ?g", rows)
        assert out == [(self.ids["a"], 10.0, 30.0)]

    def test_min_lexicographic_fallback(self):
        rows = self.rows([("a", "10"), ("a", "zzz")])
        out = self.aggregate(
            "SELECT ?g MIN(?v) AS ?lo WHERE { ?g p ?v } GROUP BY ?g", rows)
        assert out == [(self.ids["a"], "10")]

    def test_count_star_global(self):
        rows = self.rows([("a", "10"), ("b", "20")])
        out = self.aggregate(
            "SELECT COUNT(*) AS ?n WHERE { ?g p ?v }", rows)
        assert out == [(2,)]

    def test_duplicate_solutions_counted_once(self):
        rows = self.rows([("a", "10"), ("a", "10")])
        out = self.aggregate(
            "SELECT ?g COUNT(?v) AS ?n WHERE { ?g p ?v } GROUP BY ?g", rows)
        assert out == [(self.ids["a"], 1)]

    def test_avg_of_nothing_is_none(self):
        rows = self.rows([("a", "zzz")])
        out = self.aggregate(
            "SELECT ?g AVG(?v) AS ?m WHERE { ?g p ?v } GROUP BY ?g", rows)
        assert out == [(self.ids["a"], None)]
