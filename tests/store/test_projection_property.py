"""Projection against a brute-force row projection.

``GraphExplorer._project_batch`` hands the client columns: it passes a
provably distinct batch's columns through, deduplicates one column on
its ints, zips only a non-distinct multi-column batch into rows, and
slices columns for OFFSET/LIMIT.  ``brute_project`` below shares none of
that: it builds one tuple per binding row, drops a row it has already
seen by scanning the list, and slices the row list.  Random batches —
distinct or not, unbound slots, OPTIONAL's None cells, duplicates, zero,
one or several projected columns, ASK, OFFSET/LIMIT — must give the
same columns, row count, rows and ``project`` charge.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import PS_PER_NS, LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_query
from repro.store.executor import GraphExplorer, _Batch

WHERE = "WHERE { ?a p ?b . ?b p ?c }"
QUERIES = (
    f"SELECT ?a ?b ?c {WHERE}",  # every slot projected
    f"SELECT ?c ?a {WHERE}",  # a subset, out of slot order
    f"SELECT ?b {WHERE}",  # one column
    "SELECT ?a ?c WHERE { ?a p ?b OPTIONAL { ?b q ?c } }",
    "SELECT * WHERE { a p b }",  # no variable: zero-width rows
    "ASK WHERE { ?a p ?b }",
)


def brute_project(query, slots, cols, nrows):
    """The answer's rows and the number of rows charged, row by row."""
    if query.is_ask:
        return ([()] if nrows else []), 0
    rows = []
    for i in range(nrows):
        row = []
        for var in query.projected():
            column = cols[slots[var]]
            cell = None if column is None else column[i]
            row.append(-1 if cell is None else cell)
        if tuple(row) not in rows:
            rows.append(tuple(row))
    charged = len(rows)
    rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[:query.limit]
    return rows, charged


@st.composite
def projections(draw):
    text = draw(st.sampled_from(QUERIES))
    if draw(st.booleans()):
        text += f" LIMIT {draw(st.integers(min_value=0, max_value=6))}"
    if draw(st.booleans()):
        text += f" OFFSET {draw(st.integers(min_value=0, max_value=6))}"
    plan = plan_query(parse_query(text))
    nslots = len(plan.query.variables())
    nrows = draw(st.integers(min_value=0, max_value=12))
    # Few values, so duplicates are common; None only where an OPTIONAL
    # group can leave a slot unmatched in some rows.
    cell = st.integers(min_value=1, max_value=3)
    if plan.query.optionals:
        cell = st.one_of(cell, st.none())
    bound = [draw(st.booleans()) for _ in range(nslots)]
    rows = [tuple(draw(cell) if is_bound else None for is_bound in bound)
            for _ in range(nrows)]
    distinct = draw(st.booleans())
    if distinct:  # the flag is a proof: make it true
        rows = list(dict.fromkeys(rows))
    cols = [[row[slot] for row in rows] if bound[slot] else None
            for slot in range(nslots)]
    return plan, _Batch(len(rows), cols, distinct=distinct)


@settings(max_examples=400, deadline=None)
@given(drawn=projections())
def test_projection_matches_brute_force(drawn):
    plan, batch = drawn
    explorer = GraphExplorer(Cluster(num_nodes=1), StringServer())
    compiled = explorer._compile(plan)
    query = plan.query
    before = copy.deepcopy(batch.cols)
    want, charged = brute_project(query, compiled.slots, batch.cols,
                                  batch.nrows)
    meter = LatencyMeter()
    result = explorer._project_batch(plan, compiled, batch, meter)
    assert result.rows == want
    assert result.nrows == len(result) == len(want)
    width = 0 if query.is_ask else len(query.projected())
    assert result.columns == [[row[j] for row in want]
                              for j in range(width)]
    assert result.as_bool() == bool(want)
    assert meter.breakdown_ps.get("project", 0) == \
        charged * explorer.cost.binding_ns * PS_PER_NS
    assert batch.cols == before  # projection never writes a batch column
