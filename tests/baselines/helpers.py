"""Shared scenario builder for baseline-engine tests.

All engines (Wukong+S and every baseline) are fed the same static graph
and the same stream batches, then asked the paper's QC at the same window
close time; their results must agree — the baselines differ in *cost*, not
in *answers*.
"""

import json
import os

from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.sparql.parser import parse_query
from repro.streams.stream import StreamSchema, batch_tuples

XLAB = """
Logan ty XMen .
Erik ty XMen .
Logan fo Erik .
Erik fo Logan .
Logan po T-13 .
Logan po T-14 .
Erik po T-12 .
T-13 ht sosp17 .
T-12 ht sosp17 .
Logan li T-12 .
Erik li T-14 .
"""

TWEETS = """
Logan po T-15 @2200
T-15 ga loc31121 @2200
T-15 ht sosp17 @2250
Erik po T-16 @5100
Logan po T-17 @8100
"""

LIKES = """
Erik li T-15 @6100
Tony li T-15 @6200
Bruce li T-15 @6300
Clint li T-15 @9100
Erik li T-17 @9300
"""

QC_TEXT = """
REGISTER QUERY QC AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
  GRAPH Like_Stream { ?Y li ?Z }
}
"""

STREAM_ONLY_TEXT = """
REGISTER QUERY QT AS
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }
"""

SCHEMAS = [StreamSchema("Tweet_Stream", frozenset({"ga"})),
           StreamSchema("Like_Stream")]

#: Expected QC rows (as strings) at close time 10s, window contents:
#: tweets within [0s, 10s), likes within [5s, 10s).
EXPECTED_QC_AT_10S = [("Logan", "Erik", "T-15"), ("Logan", "Erik", "T-17")]


def static_triples():
    return parse_triples(XLAB)


def stream_batches():
    """All batches of both streams (1s intervals)."""
    batches = []
    batches += batch_tuples("Tweet_Stream", parse_timed_tuples(TWEETS),
                            0, 1000)
    batches += batch_tuples("Like_Stream", parse_timed_tuples(LIKES),
                            0, 1000)
    return batches


def qc_query():
    return parse_query(QC_TEXT)


def stream_only_query():
    return parse_query(STREAM_ONLY_TEXT)


def feed(engine):
    """Load static data and ingest every stream batch into a baseline."""
    engine.load_static(static_triples())
    for batch in stream_batches():
        engine.ingest(batch)
    return engine


def to_names(strings, rows):
    return sorted(tuple(strings.entity_name(v) for v in row) for row in rows)


#: QC's follow edge joined to a UNION of what the followee tweeted and
#: what an X-Men followee liked (each branch a scan + join).
UNION_TEXT = """
REGISTER QUERY QU AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH X-Lab { ?X fo ?Y }
  { GRAPH Tweet_Stream { ?Y po ?Z } }
  UNION { GRAPH Like_Stream { ?Y li ?Z } GRAPH X-Lab { ?Y ty XMen } }
}
"""

#: Every tweet, extended where a follower of its author liked it.
OPTIONAL_TEXT = """
REGISTER QUERY QO AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  OPTIONAL { GRAPH Like_Stream { ?Y li ?Z } GRAPH X-Lab { ?Y fo ?X } }
}
"""

#: QC without its second stream: the shape Structured Streaming accepts.
ONE_STREAM_TEXT = """
REGISTER QUERY QS AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
}
"""

PINNED_TEXTS = {"qc": QC_TEXT, "qt": STREAM_ONLY_TEXT, "qu": UNION_TEXT,
                "qo": OPTIONAL_TEXT, "qs": ONE_STREAM_TEXT}

#: Window closes the pinned tests replay (2s, 4s, ..., 12s).
PINNED_CLOSES = range(2000, 13000, 2000)

#: Per-close ``[ps, breakdown_ps, rows]`` of Spark, Structured and
#: CSPARQL (keyed ``engine/query``), frozen before their window buffers
#: became columns: any change to what they scan, join or charge shows.
with open(os.path.join(os.path.dirname(__file__),
                       "pinned_closes.json")) as _pins:
    PINNED = json.load(_pins)


def pinned_closes(engine, name):
    """Replay query ``name`` at every pinned close on a fed relational
    baseline: one ``[ps, breakdown_ps, rows]`` per close, rows decoded to
    names in result order (an unbound OPTIONAL variable as None)."""
    query = parse_query(PINNED_TEXTS[name])
    name_of = engine.strings.entity_name
    out = []
    for close_ms in PINNED_CLOSES:
        rows, meter = engine.execute_continuous(query, close_ms)
        out.append([meter.ps, meter.breakdown_ps,
                    [[None if v == -1 else name_of(v) for v in row]
                     for row in rows]])
    return out
