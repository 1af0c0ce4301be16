"""A deterministic miniature of LSBench (Linked Stream Benchmark).

LSBench [28] models a social network: stored data holds user profiles and
friendship edges; five streams carry user activity — posts (PO), post-likes
(PO-L, the heaviest at 86K tuples/s in the paper), photos (PH), photo-likes
(PH-L) and GPS positions (GPS, the only *timing* stream).  This module
generates the same shape at a configurable scale (``rate_scale`` of the
paper's rates; see DESIGN.md §5 for the mapping) with fully deterministic
output for a given seed.

The six continuous queries L1-L6 keep the paper's grouping:

* group (I) — selective, constant-start, fixed-size results: L1 (stream
  only), L2, L3 (stream + stored);
* group (II) — non-selective index starts whose result size grows with the
  data: L4 (stream only), L5 (the paper's QC shape), L6 (photo variant).

S1-S6 are one-shot (SPARQL) queries over the evolving stored data
(Table 8).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.rdf.terms import TimedColumns, Triple
from repro.sim.rng import make_rng, zipf_choice
from repro.streams.stream import StreamSchema

#: Paper stream rates in tuples per second (Table 1).
PAPER_RATES = {
    "PO": 10_000.0,
    "PO_L": 86_000.0,
    "PH": 10_000.0,
    "PH_L": 7_500.0,
    "GPS": 20_000.0,
}

#: Streams used by each continuous query (Table 1's usage matrix).
QUERY_STREAMS = {
    "L1": ["PO"],
    "L2": ["PO"],
    "L3": ["PO_L"],
    "L4": ["PO"],
    "L5": ["PO", "PO_L"],
    "L6": ["PH", "PH_L"],
}

#: Queries whose plans start from a constant (group I) vs index (group II).
GROUP_I = ("L1", "L2", "L3")
GROUP_II = ("L4", "L5", "L6")


@dataclass
class LSBenchConfig:
    """Scale knobs (defaults give the 'small' single-node dataset)."""

    num_users: int = 1_000
    follows_per_user: int = 12
    initial_posts_per_user: int = 4
    initial_photos_per_user: int = 2
    likes_per_post: int = 2
    hashtag_count: int = 50
    hashtag_fraction: float = 0.4
    location_count: int = 64
    recent_pool: int = 256
    rate_scale: float = 0.04
    window_range_ms: int = 1_000
    window_step_ms: int = 100
    seed: int = 42

    @staticmethod
    def small() -> "LSBenchConfig":
        """Single-node dataset (stands in for the paper's 118M triples)."""
        return LSBenchConfig()

    @staticmethod
    def large() -> "LSBenchConfig":
        """Cluster dataset (stands in for the paper's 3.75B triples)."""
        return LSBenchConfig(num_users=4_000)

    @staticmethod
    def tiny() -> "LSBenchConfig":
        """Fast dataset for tests."""
        return LSBenchConfig(num_users=120, follows_per_user=6,
                             initial_posts_per_user=2,
                             initial_photos_per_user=1, hashtag_count=12)


class LSBench:
    """Generator + query catalogue."""

    def __init__(self, config: Optional[LSBenchConfig] = None):
        self.config = config if config is not None else LSBenchConfig()

    # -- vocabulary ---------------------------------------------------------
    @staticmethod
    def user(i: int) -> str:
        return f"User{i}"

    @staticmethod
    def tag(i: int) -> str:
        return f"Tag{i}"

    @staticmethod
    def location(i: int) -> str:
        return f"Loc{i}"

    def schemas(self) -> List[StreamSchema]:
        """The five stream schemas; only GPS carries timing data."""
        return [
            StreamSchema("PO"),
            StreamSchema("PO_L"),
            StreamSchema("PH"),
            StreamSchema("PH_L"),
            StreamSchema("GPS", frozenset({"ga"})),
        ]

    def rates(self) -> Dict[str, float]:
        """Scaled tuples/second per stream."""
        return {name: rate * self.config.rate_scale
                for name, rate in PAPER_RATES.items()}

    # -- static data ----------------------------------------------------------
    def static_triples(self) -> List[Triple]:
        """The initially stored social graph."""
        cfg = self.config
        rng = make_rng(cfg.seed, "static")
        users = [self.user(i) for i in range(cfg.num_users)]
        triples: List[Triple] = []

        for name in users:
            triples.append(Triple(name, "ty", "Person"))

        # The vocabulary catalogue: hashtags and places are part of the
        # knowledge base, so queries can anchor on them from the start.
        for i in range(cfg.hashtag_count):
            triples.append(Triple(self.tag(i), "ty", "Hashtag"))
        for i in range(cfg.location_count):
            triples.append(Triple(self.location(i), "ty", "Place"))

        # Friendships, skewed toward low-index (popular) users.
        for i, name in enumerate(users):
            chosen = set()
            while len(chosen) < min(cfg.follows_per_user, cfg.num_users - 1):
                target = zipf_choice(rng, users)
                if target != name:
                    chosen.add(target)
            for target in sorted(chosen):
                triples.append(Triple(name, "fo", target))

        # Initial posts with hashtags and likes.
        for i, name in enumerate(users):
            for k in range(cfg.initial_posts_per_user):
                post = f"Post_{i}_{k}"
                triples.append(Triple(name, "po", post))
                if rng.random() < cfg.hashtag_fraction:
                    triples.append(Triple(
                        post, "ht", self._pick_tag(rng)))
                for _ in range(cfg.likes_per_post):
                    fan = zipf_choice(rng, users)
                    triples.append(Triple(fan, "li", post))

        # Initial photos with likes.
        for i, name in enumerate(users):
            for k in range(cfg.initial_photos_per_user):
                photo = f"Photo_{i}_{k}"
                triples.append(Triple(name, "up", photo))
                for _ in range(cfg.likes_per_post):
                    fan = zipf_choice(rng, users)
                    triples.append(Triple(fan, "lp", photo))

        return triples

    # -- streams -----------------------------------------------------------------
    def generate_streams(self, duration_ms: int, start_ms: int = 0,
                         rate_scale: Optional[float] = None,
                         rates: Optional[Dict[str, float]] = None
                         ) -> Dict[str, TimedColumns]:
        """All five streams for ``duration_ms``, time-ordered per stream,
        each built as four columns (no object per tuple).

        Streams are generated together so likes can reference recently
        posted stream content (PO-L likes PO posts, PH-L likes PH photos).
        ``rates`` overrides the paper's per-stream tuples/second before
        scaling (a rate of 0 disables a stream), used by experiments that
        need a specific stream-size profile (e.g. Fig. 4).
        """
        cfg = self.config
        scale = rate_scale if rate_scale is not None else cfg.rate_scale
        base_rates = dict(PAPER_RATES)
        if rates is not None:
            base_rates.update(rates)
        rng = make_rng(cfg.seed, "streams", duration_ms, scale,
                       tuple(sorted(base_rates.items())))
        users = [self.user(i) for i in range(cfg.num_users)]

        recent_posts: List[str] = [
            f"Post_{i}_{k}" for i in range(min(cfg.num_users, 64))
            for k in range(cfg.initial_posts_per_user)
        ][-cfg.recent_pool:]
        recent_photos: List[str] = [
            f"Photo_{i}_{k}" for i in range(min(cfg.num_users, 64))
            for k in range(cfg.initial_photos_per_user)
        ][-cfg.recent_pool:]

        out = {name: TimedColumns() for name in PAPER_RATES}
        last_post: Dict[str, str] = {}
        counters = {"post": 0, "photo": 0}

        # Merge the five per-stream schedules in global time order so that
        # cross-stream references (likes of stream posts) are causal.
        heap: List[Tuple[float, int, str]] = []
        for order, (stream, rate) in enumerate(sorted(base_rates.items())):
            scaled = rate * scale
            if scaled > 0:
                heapq.heappush(heap, (start_ms + 1000.0 / scaled, order,
                                      stream))

        while heap:
            when, order, stream = heapq.heappop(heap)
            if when >= start_ms + duration_ms:
                continue
            scaled = base_rates[stream] * scale
            heapq.heappush(heap, (when + 1000.0 / scaled, order, stream))

            actor = zipf_choice(rng, users)
            if stream == "PO":
                if actor in last_post and \
                        rng.random() < cfg.hashtag_fraction:
                    s, p, o = last_post.pop(actor), "ht", self._pick_tag(rng)
                else:
                    post = f"SPost{counters['post']}"
                    counters["post"] += 1
                    s, p, o = actor, "po", post
                    last_post[actor] = post
                    recent_posts.append(post)
                    if len(recent_posts) > cfg.recent_pool:
                        recent_posts.pop(0)
            elif stream == "PO_L":
                # Likes are heavily skewed toward hot posts, which is what
                # lets the stream index coalesce many likes of one post
                # into a single fat-pointer span (Table 7's PO-L contrast).
                # The Zipf rank counts back from the newest post.
                s, p, o = actor, "li", recent_posts[
                    -1 - zipf_choice(rng, range(len(recent_posts)))]
            elif stream == "PH":
                photo = f"SPhoto{counters['photo']}"
                counters["photo"] += 1
                s, p, o = actor, "up", photo
                recent_photos.append(photo)
                if len(recent_photos) > cfg.recent_pool:
                    recent_photos.pop(0)
            elif stream == "PH_L":
                s, p, o = actor, "lp", recent_photos[
                    -1 - zipf_choice(rng, range(len(recent_photos)))]
            else:  # GPS (timing data)
                s, p, o = actor, "ga", self.location(
                    rng.randrange(cfg.location_count))
            columns = out[stream]
            columns.s.append(s)
            columns.p.append(p)
            columns.o.append(o)
            columns.ts.append(int(when))
        return out

    # -- continuous queries ---------------------------------------------------------
    def _pick_tag(self, rng) -> str:
        """Hashtag popularity is Zipf-skewed, like real social tags."""
        ranks = list(range(self.config.hashtag_count))
        return self.tag(zipf_choice(rng, ranks))

    def rare_tag(self) -> str:
        """A deep-tail hashtag: it appears at a low, rate-independent
        trickle, which keeps queries anchored on it selective (group I)."""
        return self.tag(self.config.hashtag_count * 3 // 4)

    def quiet_user(self) -> int:
        """A deterministic mid-tail user with little activity.

        Group-I queries default to it: the paper's selective queries
        produce fixed-size results regardless of data size and complete
        within a single node, which requires a start entity whose window
        activity does not scale with the stream rate.
        """
        return self.config.num_users // 2 + 7

    def continuous_query(self, name: str, start_user: Optional[int] = None,
                         range_ms: Optional[int] = None,
                         step_ms: Optional[int] = None) -> str:
        """The C-SPARQL text of L1..L6.

        ``start_user`` varies the constant start vertex of group-I queries
        (the mixed workloads randomise it per registration, §6.6); it
        defaults to :meth:`quiet_user`.
        """
        r = range_ms if range_ms is not None else self.config.window_range_ms
        s = step_ms if step_ms is not None else self.config.window_step_ms
        if start_user is None:
            start_user = self.quiet_user()
        user = self.user(start_user)

        def win(stream: str) -> str:
            return f"FROM {stream} [RANGE {r}ms STEP {s}ms]"

        templates = {
            "L1": f"""
                REGISTER QUERY L1 AS
                SELECT ?P
                {win('PO')}
                WHERE {{ GRAPH PO {{ {user} po ?P }} }}
            """,
            "L2": f"""
                REGISTER QUERY L2 AS
                SELECT ?P ?U
                {win('PO')}
                FROM X-Lab
                WHERE {{
                    GRAPH PO {{ ?P ht {self.rare_tag()} }}
                    GRAPH X-Lab {{ ?U po ?P }}
                }}
            """,
            "L3": f"""
                REGISTER QUERY L3 AS
                SELECT ?L ?F
                {win('PO_L')}
                FROM X-Lab
                WHERE {{
                    GRAPH PO_L {{ ?L li SPost{start_user % 4} }}
                    GRAPH X-Lab {{ ?L fo ?F }}
                }}
            """,
            "L4": f"""
                REGISTER QUERY L4 AS
                SELECT ?U ?P ?T
                {win('PO')}
                WHERE {{ GRAPH PO {{ ?U po ?P . ?P ht ?T }} }}
            """,
            "L5": f"""
                REGISTER QUERY L5 AS
                SELECT ?X ?Y ?Z
                {win('PO')}
                {win('PO_L')}
                FROM X-Lab
                WHERE {{
                    GRAPH PO {{ ?X po ?Z }}
                    GRAPH X-Lab {{ ?X fo ?Y }}
                    GRAPH PO_L {{ ?Y li ?Z }}
                }}
            """,
            "L6": f"""
                REGISTER QUERY L6 AS
                SELECT ?X ?Y ?Z
                {win('PH')}
                {win('PH_L')}
                FROM X-Lab
                WHERE {{
                    GRAPH PH {{ ?X up ?Z }}
                    GRAPH X-Lab {{ ?X fo ?Y }}
                    GRAPH PH_L {{ ?Y lp ?Z }}
                }}
            """,
        }
        if name not in templates:
            raise KeyError(f"unknown LSBench query: {name}")
        return templates[name]

    # -- one-shot queries ---------------------------------------------------------
    def oneshot_query(self, name: str, start_user: int = 0) -> str:
        """The SPARQL text of S1..S6 (Table 8)."""
        user = self.user(start_user)
        tag = self.tag(0)
        templates = {
            # Medium: posts carrying a given hashtag and their authors.
            "S1": f"SELECT ?U ?P WHERE {{ ?P ht {tag} . ?U po ?P }}",
            # Tiny: one user's posts.
            "S2": f"SELECT ?P WHERE {{ {user} po ?P }}",
            # Small: friends-of-friends.
            "S3": f"SELECT ?F ?G WHERE {{ {user} fo ?F . ?F fo ?G }}",
            # Large: every post with its hashtag.
            "S4": "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }",
            # Small: who likes this user's posts.
            "S5": f"SELECT ?P ?L WHERE {{ {user} po ?P . ?L li ?P }}",
            # Largest: friends' posts and their hashtags.
            "S6": "SELECT ?U ?F ?P ?T WHERE "
                  "{ ?U fo ?F . ?F po ?P . ?P ht ?T }",
        }
        if name not in templates:
            raise KeyError(f"unknown LSBench one-shot query: {name}")
        return templates[name]

    # -- temporal (SPARQL-T) queries ---------------------------------------------
    def temporal_query(self, name: str, start_user: int = 0,
                       snapshot: Optional[int] = None,
                       ts_from: int = 1, ts_to: int = 4) -> str:
        """The SPARQL-T text of T1..T4.

        ``snapshot`` scopes the point-in-time queries (defaults to the
        base snapshot — the initially loaded graph); ``[ts_from, ts_to)``
        bounds the interval queries' snapshot range.

        * **T1** — "friendships active at t": one user's friends as they
          stood at snapshot ``t`` (point-in-time, delegates to the
          columnar one-shot path).
        * **T2** — "posts within [t1, t2)": posts whose insertion SN
          falls inside the range, via numeric FILTERs on the bound
          ``?ts`` endpoint.
        * **T3** — the same range selection phrased as an interval
          FILTER (``OVERLAPS`` against a constant interval) — exercises
          the interval-predicate path end to end.
        * **T4** — deep history: friends' posts (a 2-hop join) where
          both edges carry valid-time intervals and the posting edge
          must not predate the friendship edge.
        """
        user = self.user(start_user)
        scope = f"FROM SNAPSHOT <{snapshot}> " if snapshot is not None \
            else ""
        templates = {
            "T1": f"SELECT ?F {scope}WHERE {{ {user} fo ?F }}",
            "T2": f"SELECT ?U ?P ?ts {scope}WHERE {{ ?U po ?P [?ts, ?te) "
                  f"FILTER (?ts >= {ts_from}) FILTER (?ts < {ts_to}) }}",
            "T3": f"SELECT ?U ?P {scope}WHERE {{ ?U po ?P [?ts, ?te) "
                  f"FILTER ([?ts, ?te) OVERLAPS [{ts_from}, {ts_to})) }}",
            "T4": f"SELECT ?F ?P ?fts ?pts {scope}WHERE {{ "
                  f"{user} fo ?F [?fts, ?fte) . ?F po ?P [?pts, ?pte) "
                  f"FILTER (?pts >= ?fts) }}",
        }
        if name not in templates:
            raise KeyError(f"unknown LSBench temporal query: {name}")
        return templates[name]
