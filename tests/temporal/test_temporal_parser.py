"""SPARQL-T grammar: FROM SNAPSHOT, quintuple patterns, interval FILTERs."""

import pytest

from repro.errors import InvalidIntervalError
from repro.sparql.ast import OPEN_END
from repro.sparql.parser import ParseError, parse_query

pytestmark = pytest.mark.temporal


class TestFromSnapshot:
    def test_snapshot_scope_parses(self):
        query = parse_query(
            "SELECT ?F FROM SNAPSHOT <7> WHERE { User3 fo ?F }")
        assert query.snapshot == 7
        assert query.is_temporal
        assert not query.patterns[0].has_interval

    def test_plain_query_has_no_snapshot(self):
        query = parse_query("SELECT ?F WHERE { User3 fo ?F }")
        assert query.snapshot is None
        assert not query.is_temporal

    def test_snapshot_composes_with_aggregates(self):
        query = parse_query(
            "SELECT ?F COUNT(?F) AS ?N FROM SNAPSHOT <3> "
            "WHERE { User3 fo ?F } GROUP BY ?F")
        assert query.snapshot == 3
        assert query.aggregates

    def test_snapshot_changes_plan_cache_key(self):
        plain = parse_query("SELECT ?F WHERE { User3 fo ?F }")
        at3 = parse_query("SELECT ?F FROM SNAPSHOT <3> WHERE { User3 fo ?F }")
        at4 = parse_query("SELECT ?F FROM SNAPSHOT <4> WHERE { User3 fo ?F }")
        keys = {plain.cache_key(), at3.cache_key(), at4.cache_key()}
        assert len(keys) == 3

    def test_negative_snapshot_rejected(self):
        with pytest.raises(InvalidIntervalError):
            parse_query("SELECT ?F FROM SNAPSHOT <-1> WHERE { User3 fo ?F }")

    def test_duplicate_snapshot_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?F FROM SNAPSHOT <1> FROM SNAPSHOT <2> "
                        "WHERE { User3 fo ?F }")

    def test_snapshot_on_continuous_rejected(self):
        with pytest.raises(ParseError):
            parse_query(
                "REGISTER QUERY Q AS SELECT ?X FROM SNAPSHOT <1> "
                "FROM Posts [RANGE 1000ms STEP 1000ms] "
                "WHERE { GRAPH Posts { ?X po ?P } }")


class TestQuintuplePatterns:
    def test_quintuple_binds_interval_endpoints(self):
        query = parse_query(
            "SELECT ?P ?ts WHERE { User1 po ?P [?ts, ?te) }")
        pattern = query.patterns[0]
        assert pattern.has_interval
        assert pattern.ts == "?ts" and pattern.te == "?te"
        assert query.is_temporal
        # Interval endpoints ride after the graph variables.
        assert query.variables()[-2:] == ["?ts", "?te"]

    def test_endpoints_must_be_distinct_variables(self):
        with pytest.raises(InvalidIntervalError):
            parse_query("SELECT ?P WHERE { User1 po ?P [?t, ?t) }")
        with pytest.raises(InvalidIntervalError):
            parse_query("SELECT ?P WHERE { User1 po ?P [3, ?te) }")

    def test_endpoint_collision_with_graph_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?P WHERE { User1 po ?P [?P, ?te) }")

    def test_quintuple_inside_optional_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?P WHERE { User1 fo ?F "
                        "OPTIONAL { ?F po ?P [?ts, ?te) } }")

    def test_quintuple_with_aggregates_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?P COUNT(?P) AS ?N "
                        "WHERE { User1 po ?P [?ts, ?te) } GROUP BY ?P")


class TestIntervalFilters:
    def test_overlaps_filter_parses(self):
        query = parse_query(
            "SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
            "FILTER ([?ts, ?te) OVERLAPS [2, 5)) }")
        (ifilter,) = query.interval_filters
        assert ifilter.op == "OVERLAPS"
        assert (ifilter.left_ts, ifilter.left_te) == ("?ts", "?te")
        assert (ifilter.right_ts, ifilter.right_te) == ("2", "5")

    def test_star_endpoint_is_open_end(self):
        query = parse_query(
            "SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
            "FILTER ([?ts, ?te) DURING [0, *)) }")
        (ifilter,) = query.interval_filters
        assert ifilter.right_te == str(OPEN_END)

    def test_every_interval_op_accepted(self):
        for op in ("OVERLAPS", "DURING", "BEFORE", "AFTER", "STARTS"):
            query = parse_query(
                "SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
                f"FILTER ([?ts, ?te) {op} [1, 4)) }}")
            assert query.interval_filters[0].op == op

    def test_unknown_interval_op_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
                        "FILTER ([?ts, ?te) MEETS [1, 4)) }")

    def test_empty_constant_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            parse_query("SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
                        "FILTER ([?ts, ?te) OVERLAPS [5, 5)) }")

    def test_unbound_filter_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?P WHERE { User1 po ?P [?ts, ?te) "
                        "FILTER ([?zs, ?te) OVERLAPS [1, 4)) }")

    def test_graph_variable_endpoint_rejected(self):
        """An endpoint must be a quintuple pattern's ``[?ts, ?te)``
        variable: a graph variable binds a vid, not a snapshot number."""
        for text in [
            "SELECT ?U ?P WHERE { ?U po ?P [?ts, ?te) "
            "FILTER ([?U, ?te) OVERLAPS [0, 5)) }",
            "SELECT ?U ?P WHERE { ?U po ?P [?ts, ?te) "
            "FILTER ([0, 5) DURING [?ts, ?P)) }",
        ]:
            with pytest.raises(ParseError, match="not graph variables"):
                parse_query(text)

    def test_plain_filters_see_interval_bindings(self):
        query = parse_query(
            "SELECT ?P ?ts WHERE { User1 po ?P [?ts, ?te) "
            "FILTER (?ts >= 2) }")
        assert query.filters[0].left == "?ts"
