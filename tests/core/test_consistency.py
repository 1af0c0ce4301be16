"""End-to-end consistency properties of the Wukong+S engine.

Two classes of invariant from §4.3:

* **window correctness** — every continuous execution returns exactly the
  joins of the stored data with the tuples of its (batch-aligned) windows,
  validated against a brute-force reference evaluator on random streams;
* **prefix integrity / snapshot monotonicity** — one-shot queries observe
  an append-only history: re-reading at later stable snapshots never loses
  rows, and the batches admitted by snapshot N are a prefix of those
  admitted by N+1.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema
from streams.helpers import timed

USERS = ["u0", "u1", "u2"]
STATIC = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u0 ."

QC_TEMPLATE = """
REGISTER QUERY QC AS
SELECT ?X ?Y ?Z
FROM Posts [RANGE {range_ms}ms STEP 1000ms]
FROM Likes [RANGE {range_ms}ms STEP 1000ms]
FROM X-Lab
WHERE {{
    GRAPH Posts {{ ?X po ?Z }}
    GRAPH X-Lab {{ ?X fo ?Y }}
    GRAPH Likes {{ ?Y li ?Z }}
}}
"""

FOLLOWS = {("u0", "u1"), ("u1", "u2"), ("u2", "u0")}


def event_strategy():
    return st.tuples(
        st.sampled_from(USERS),          # actor
        st.integers(0, 5),               # post id
        st.integers(0, 7),               # batch index (1s batches)
        st.booleans(),                   # is_like (else post)
    )


def build_streams(events):
    posts, likes = [], []
    for actor, post_id, batch, is_like in sorted(
            events, key=lambda e: e[2]):
        ts = batch * 1000 + 500
        post = f"t{post_id}"
        if is_like:
            likes.append((actor, "li", post, ts))
        else:
            posts.append((actor, "po", post, ts))
    return timed(posts), timed(likes)


def reference_answer(posts, likes, close_ms, range_ms):
    """Brute-force QC evaluation over the raw tuples."""
    start = close_ms - range_ms
    window_posts = [(s, o) for (s, _, o), ts in posts
                    if start <= ts < close_ms]
    window_likes = [(s, o) for (s, _, o), ts in likes
                    if start <= ts < close_ms]
    out = set()
    for x, z in window_posts:
        for (fx, fy) in FOLLOWS:
            if fx != x:
                continue
            if (fy, z) in window_likes:
                out.add((x, fy, z))
    return out


@settings(max_examples=25, deadline=None)
@given(events=st.lists(event_strategy(), max_size=24),
       range_s=st.sampled_from([1, 2, 4]),
       num_nodes=st.sampled_from([1, 3]))
def test_continuous_results_match_reference(events, range_s, num_nodes):
    posts, likes = build_streams(events)
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts"), StreamSchema("Likes")],
        config=EngineConfig(num_nodes=num_nodes, batch_interval_ms=1000))
    engine.load_static(parse_triples(STATIC))
    post_source = StreamSource(engine.schemas["Posts"])
    post_source.queue_tuples(posts, 0, 1000)
    like_source = StreamSource(engine.schemas["Likes"])
    like_source.queue_tuples(likes, 0, 1000)
    engine.attach_source(post_source)
    engine.attach_source(like_source)

    handle = engine.register_continuous(
        QC_TEMPLATE.format(range_ms=range_s * 1000))
    engine.run_until(10_000)

    assert handle.executions, "the query must have fired"
    for record in handle.executions:
        got = {tuple(engine.strings.entity_name(v) for v in row)
               for row in record.result.rows}
        want = reference_answer(posts, likes, record.close_ms,
                                range_s * 1000)
        assert got == want, f"at close={record.close_ms}"


@settings(max_examples=15, deadline=None)
@given(events=st.lists(event_strategy(), max_size=20),
       plan_width=st.sampled_from([1, 3]))
def test_oneshot_snapshots_grow_monotonically(events, plan_width):
    posts, likes = build_streams(events)
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts"), StreamSchema("Likes")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000,
                            plan_width=plan_width))
    engine.load_static(parse_triples(STATIC))
    post_source = StreamSource(engine.schemas["Posts"])
    post_source.queue_tuples(posts, 0, 1000)
    like_source = StreamSource(engine.schemas["Likes"])
    like_source.queue_tuples(likes, 0, 1000)
    engine.attach_source(post_source)
    engine.attach_source(like_source)

    query = "SELECT ?U ?P WHERE { ?U po ?P }"
    previous_rows = set()
    previous_sn = 0
    while engine.clock.now_ms < 10_000:
        engine.step()
        record = engine.oneshot(query)
        rows = set(record.result.rows)
        assert record.snapshot >= previous_sn
        assert rows >= previous_rows, \
            "append-only history must never lose one-shot rows"
        previous_rows = rows
        previous_sn = record.snapshot
    # Eventually every post is visible.
    expected = set(zip(posts.s, posts.o))
    final = {(engine.strings.entity_name(a), engine.strings.entity_name(b))
             for a, b in previous_rows}
    assert final == expected
