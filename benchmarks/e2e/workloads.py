"""The five client-to-store workloads and their output checks.

Every workload is a closed loop paced by the simulated clock: one
driver thread offers exactly one 100 ms mini-batch of every stream per
tick (or, for ``adhoc``, one query per step) and starts the next step
when the previous one has returned.  The program under test is built
through its public constructors only and receives nothing but the
generated inputs; the seed feeds ``LSBenchConfig.seed`` and the
start-user / tenant rotation and nothing else.

A workload object is used in this order: ``generate()`` once, then
``setup()`` (repeatable: it rebuilds everything from the inputs), then
``step(i)`` / ``check(i, step)`` for ``i`` from ``first_step`` up, then
``finish()``.  ``step`` is the measured path and does its own timing;
``check`` is the untimed output check and fills ``tally``.  The first
``prefix_steps`` steps are a fixed amount of work: everything that must
repeat exactly (goldens, counts, simulated statistics) is taken there.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

import oracle
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.client.proxy import ProxyPool
from repro.core.engine import EngineConfig, WukongSEngine
from repro.serving import ServingLayer
from repro.streams.source import StreamSource

TICK_MS = 100
#: The seed ``expected.json`` pins goldens for.
PINNED_SEED = 42
#: The streams whose tuples enter the persistent store (GPS is timing).
TIMELESS = ("PO", "PO_L", "PH", "PH_L")
_clock = time.perf_counter


class Step(NamedTuple):
    """What one closed-loop step did."""

    wall_s: float
    #: Units of ``work_per_s``: stream tuples offered, or rows returned.
    work: int
    #: Whether ``wall_s`` is a sample of ``op_ms_*``.
    gated: bool
    #: ``(class, key, ClientResult | Exception, latency_s | None)`` per
    #: client-visible output; ``key`` is a subscription index (a
    #: delivery) or a query text (an answer).
    outputs: tuple


class Tally:
    """Output-check bookkeeping: operations attempted and failed, plus
    the semantic totals ``expected.json`` pins over the prefix."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.deliveries = 0
        self.queries = 0
        self.rows = 0
        self.query_latency_s: List[float] = []
        self.sim_oneshot_ms: List[float] = []
        #: Prefix-only, per query class: results, rows, sha256 of rows.
        self.results: Counter = Counter()
        self.class_rows: Counter = Counter()
        self.sha: Dict[str, "hashlib._Hash"] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def golden(self, tuples: int) -> dict:
        """The semantic outputs of the prefix, in ``expected.json`` form."""
        return {"tuples": tuples,
                "results": dict(sorted(self.results.items())),
                "rows": dict(sorted(self.class_rows.items())),
                "sha256": {cls: h.hexdigest()
                           for cls, h in sorted(self.sha.items())}}


class Workload:
    """Base: input generation, engine build, generic output checks."""

    name = ""
    why = ""
    nodes = 1
    config: dict = {}
    #: Simulated stream generated; the measured phase ends with it.
    stream_ms = 0
    warmup_ticks = 20
    prefix_steps = 0
    #: The program under test and its client side, built by ``setup()``.
    engine = pool = serving = subs = None

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        if quick:
            self.stream_ms = max(self.stream_ms // 800 * 100, 4_000)
            self.prefix_steps = max(self.prefix_steps // 8, 12)
        self.tally = Tally()
        self.first_step = 0

    # -- inputs ------------------------------------------------------------
    def generate(self) -> None:
        self.bench = LSBench(LSBenchConfig(seed=self.seed))
        self.users = self.bench.config.num_users
        self.static = self.bench.static_triples()
        self.streams = self.bench.generate_streams(self.stream_ms)
        #: Tuples offered per tick, all five streams.
        self.offered = [0] * (self.stream_ms // TICK_MS)
        for tuples in self.streams.values():
            for _, ts in tuples:
                self.offered[ts // TICK_MS] += 1
        #: The measured phase ends here at the latest: the stream is out.
        self.last_step = len(self.offered)

    def user(self, k: int) -> int:
        """The k-th start user of this seed's rotation: a stride over the
        Zipf popularity ranks below the 32 hottest.  A top-ranked user
        posts up to a quarter of a stream, so letting the seed decide
        whether one is a start user would make the selective queries a
        different workload from seed to seed."""
        return 32 + (17 * self.seed + 31 * k) % (self.users - 32)

    # -- program under test --------------------------------------------------
    def build_engine(self) -> WukongSEngine:
        engine = WukongSEngine(
            schemas=self.bench.schemas(),
            config=EngineConfig(num_nodes=self.nodes, **self.config))
        engine.load_static(self.static)
        for name, tuples in self.streams.items():
            source = StreamSource(engine.schemas[name])
            source.queue_tuples(tuples, 0, TICK_MS)
            engine.attach_source(source)
        return engine

    def release(self) -> None:
        """Drop the program built by the last ``setup()``."""
        self.engine = self.pool = self.serving = self.subs = None

    def setup(self) -> None:
        """Build the program, register, warm up; leaves ``first_step``."""
        self.engine = self.build_engine()
        self.connect()
        for i in range(self.warmup_ticks):
            self.warm(i)
        self.first_step = self.warmup_ticks
        self.prefix_end = self.first_step + self.prefix_steps

    def connect(self) -> None:
        """Create the client side and register standing queries."""

    def warm(self, i: int) -> None:
        self.step(i)

    def step(self, i: int) -> Step:
        raise NotImplementedError

    # -- output check --------------------------------------------------------
    def check(self, i: int, step: Step) -> None:
        """Count the step's operations; hash prefix outputs at the pinned
        seed.  Subclasses add the oracle half."""
        tally = self.tally
        tally.attempted += 1
        in_prefix = i < self.prefix_end
        for cls, key, result, latency_s in step.outputs:
            tally.attempted += 1
            if isinstance(result, Exception):
                tally.fail(f"step {i} {cls}: {result!r}")
                continue
            rows = result.rows
            tally.rows += len(rows)
            if isinstance(key, int):
                tally.deliveries += 1
            else:
                tally.queries += 1
                tally.sim_oneshot_ms.append(result.server_latency_ms)
                if latency_s is not None:
                    tally.query_latency_s.append(latency_s)
            if in_prefix:
                tally.results[cls] += 1
                tally.class_rows[cls] += len(rows)
                if self.seed == PINNED_SEED and self.hashed(key):
                    tally.sha.setdefault(cls, hashlib.sha256()).update(
                        repr(sorted(rows)).encode())
            self.verify(i, cls, key, result)

    def hashed(self, key) -> bool:
        """Whether outputs under ``key`` enter the golden sha256."""
        return True

    def verify(self, i: int, cls: str, key, result) -> None:
        """Oracle half; default: none (goldens only)."""

    def finish(self) -> None:
        """End-of-run checks: every offered tuple was injected."""
        ticks = self.engine.clock.now_ms // TICK_MS
        offered = sum(self.offered[:ticks])
        injected = sum(inj.tuples_injected for inj in self.engine.injectors)
        self.tally.attempted += 1
        if injected != offered:
            self.tally.fail(f"injected {injected} of {offered} tuples")

    def _poll(self, subs, classes, out: list) -> None:
        """Poll and decode every subscription (a failed poll is one
        failed operation, not a failed run)."""
        for k, sub in enumerate(subs):
            try:
                for result in sub.poll():
                    out.append((classes[k], k, result, None))
            except Exception as exc:  # client-op boundary: record, go on
                out.append((classes[k], k, exc, None))


class Ingest(Workload):
    name = "ingest"
    why = ("no queries: adaptor, dispatcher, injector, kvstore, stream "
           "index, coordinator and gc do all the work, the query layers "
           "none")
    stream_ms = 160_000
    prefix_steps = 400

    def step(self, i: int) -> Step:
        t0 = _clock()
        self.engine.step()
        return Step(_clock() - t0, self.offered[i], True, ())


class Standing(Workload):
    name = "standing"
    why = ("15 continuous queries polled and decoded every tick: window "
           "close dominates on top of the same ingestion, so standing "
           "minus ingest isolates the query side")
    stream_ms = 100_000
    prefix_steps = 150

    def connect(self) -> None:
        self.pool = ProxyPool(self.engine)
        self.subs, self.classes = [], []
        #: Results seen per subscription (= index of the next close).
        self.seen: List[int] = []
        specs = [(q, self.user(k)) for q in ("L1", "L2", "L3")
                 for k in range(4)] + [(q, None) for q in ("L4", "L5", "L6")]
        for n, (cls, start) in enumerate(specs):
            text = self.bench.continuous_query(cls, start_user=start)
            text = text.replace(f"QUERY {cls} AS", f"QUERY {cls}n{n} AS")
            self.subs.append(self.pool.register(text))
            self.classes.append(cls)
            self.seen.append(0)
        self.po = self.streams["PO"]
        self.po_ts = [ts for _, ts in self.po]
        self.range_ms = self.bench.config.window_range_ms

    def warm(self, i: int) -> None:
        for _, key, _, _ in self.step(i).outputs:
            self.seen[key] += 1

    def step(self, i: int) -> Step:
        out: list = []
        t0 = _clock()
        self.engine.step()
        self._poll(self.subs, self.classes, out)
        return Step(_clock() - t0, self.offered[i], True, tuple(out))

    def verify(self, i: int, cls: str, key, result) -> None:
        """Stream-only L1/L4, every 10th close: brute force over the PO
        tuples whose timestamp falls in the closed window."""
        nth = self.seen[key]
        self.seen[key] = nth + 1
        if cls not in ("L1", "L4") or nth % 10:
            return
        sub = self.subs[key]
        close_ms = sub.handle.executions[nth].close_ms
        lo = bisect.bisect_left(self.po_ts, close_ms - self.range_ms)
        hi = bisect.bisect_left(self.po_ts, close_ms)
        want = oracle.window_graph(self.po[lo:hi], close_ms,
                                   self.range_ms).evaluate(sub.procedure.text)
        if sorted(result.rows) != want:
            self.tally.fail(f"{sub.name} close {close_ms}: "
                            f"{len(result.rows)} rows, oracle {len(want)}")


class Adhoc(Workload):
    name = "adhoc"
    why = ("reads with no writes through ProxyPool.submit: parse/plan/"
           "procedure caches, one-shot engine, projection and client decode "
           "do the work; half the selective texts fit the caches, half are "
           "used once")
    stream_ms = 10_000
    warmup_ticks = 100  # the store evolves in set-up, then stays quiescent
    ROUND = ["hot"] * 150 + ["cold"] * 150 + ["S1"] * 4 + ["S4"] * 4
    prefix_steps = len(ROUND) + 1
    SELECTIVE = ("S2", "S3", "S5")
    HOT_USERS = 32

    def generate(self) -> None:
        super().generate()
        self.last_step = 1 << 30  # queries never run out; the clock ends it
        order = list(self.ROUND)
        random.Random(self.seed).shuffle(order)
        self.order = order + ["S6"]
        hot_users = [self.user(k) for k in range(self.HOT_USERS)]
        self.hot = [(cls, self.bench.oneshot_query(cls, start_user=u))
                    for u in hot_users for cls in self.SELECTIVE]
        self.cold_users = [u for u in range(self.users)
                           if u not in set(hot_users)]
        self.graph = oracle.Graph(
            list(self.static) + [triple for name in TIMELESS
                                 for triple, _ in self.streams[name]])

    def connect(self) -> None:
        self.pool = ProxyPool(self.engine)
        self.draws = Counter()
        #: text -> (row count, hash of the row sequence) of its first,
        #: oracle-checked answer; the store is quiescent, so repeats of a
        #: text must repeat it.
        self.answers: Dict[str, Tuple[int, int]] = {}

    def warm(self, i: int) -> None:
        self.engine.step()

    def pick(self, i: int) -> Tuple[str, str]:
        """The ``(class, text)`` of step ``i``; every cold text is new."""
        kind = self.order[(i - self.first_step) % len(self.order)]
        n = self.draws[kind]
        self.draws[kind] += 1
        if kind == "hot":
            return self.hot[n % len(self.hot)]
        if kind == "cold":
            cls = self.SELECTIVE[n % 3]
            text = self.bench.oneshot_query(
                cls, start_user=self.cold_users[n % len(self.cold_users)])
            return cls, text.replace("?", f"?c{n}_")
        return kind, self.bench.oneshot_query(kind)

    def step(self, i: int) -> Step:
        cls, text = self.pick(i)
        t0 = _clock()
        try:
            result = self.pool.submit(text)
        except Exception as exc:  # client-op boundary: record, go on
            result = exc
        wall = _clock() - t0
        rows = 0 if isinstance(result, Exception) else len(result.rows)
        return Step(wall, rows, cls in self.SELECTIVE,
                    ((cls, text, result, wall),))

    def verify(self, i: int, cls: str, key, result) -> None:
        """Every answer against the oracle over static + timeless stream
        tuples; a repeated text against its first answer."""
        rows = result.rows
        mark = (len(rows), hash(tuple(rows)))
        if self.answers.get(key) == mark:
            return  # a repeat that repeats its checked first answer
        self.answers.setdefault(key, mark)
        want = self.graph.evaluate(key)
        if sorted(rows) != want:
            self.tally.fail(f"{cls} {key!r}: {len(rows)} rows, "
                            f"oracle {len(want)}")


class ServingMix(Workload):
    name = "serving_mix"
    why = ("two shards behind ServingLayer: 256 subscriptions shared onto "
           "~24 backing queries, 4 one-shots per tick beside the writes; "
           "only here do sharing, fair scheduling and reads-vs-writes show")
    nodes = 2
    stream_ms = 40_000
    prefix_steps = 80
    TENANTS = 8
    ONESHOTS = ("S2", "S3", "S5", "S1")

    def connect(self) -> None:
        self.serving = ServingLayer(self.engine, seed=self.seed)
        self.tenants = [f"tenant{t}" for t in range(self.TENANTS)]
        self.subs, self.classes = [], []
        self.first_of_text: Dict[str, int] = {}
        specs = [(q, self.user(k)) for q in ("L1", "L2", "L3")
                 for k in range(16) for _ in range(4)]
        specs += [(q, None) for q in ("L4", "L5", "L6")
                  for _ in range(22 if q == "L4" else 21)]
        for n, (cls, start) in enumerate(specs):
            text = self.bench.continuous_query(cls, start_user=start)
            try:
                sub = self.serving.register(self.tenants[n % self.TENANTS],
                                            text)
            except Exception as exc:  # admission refusal = failed op
                self.tally.fail(f"register {cls}: {exc!r}")
                continue
            self.first_of_text.setdefault(text, len(self.subs))
            self.subs.append(sub)
            self.classes.append(cls)
        self.hashed_subs = set(self.first_of_text.values())
        self.tally.attempted += len(specs)
        self.backlog_max = 0
        self.class_of: Dict[str, str] = {}

    def hashed(self, key) -> bool:
        """One subscriber per distinct text carries the golden hash; its
        co-subscribers are counted (results and rows) only."""
        return not isinstance(key, int) or key in self.hashed_subs

    def step(self, i: int) -> Step:
        out: list = []
        serving = self.serving
        t0 = _clock()
        for j, cls in enumerate(self.ONESHOTS):
            text = self.bench.oneshot_query(
                cls, start_user=self.user(4 * i + j))
            self.class_of[text] = cls
            try:
                serving.submit(self.tenants[(i + j) % self.TENANTS], text)
            except Exception as exc:  # admission refusal = failed op
                out.append((cls, text, exc, None))
        self.backlog_max = max(self.backlog_max, serving.scheduler.backlog)
        for served in serving.tick():
            text = served.request.text
            out.append((self.class_of[text], text, served.result, None))
        self._poll(self.subs, self.classes, out)
        return Step(_clock() - t0, self.offered[i], True, tuple(out))


class History(Workload):
    name = "history"
    why = ("the only workload that reaches repro.temporal: snapshot and "
           "interval queries beside ingestion on ever-deeper version "
           "chains (scalarization off)")
    config = {"scalarization": False}
    stream_ms = 75_000
    warmup_ticks = 50
    prefix_steps = 150

    def connect(self) -> None:
        self.pool = ProxyPool(self.engine)
        self.stable = 1

    def warm(self, i: int) -> None:
        self.engine.step()

    def step(self, i: int) -> Step:
        out: list = []
        bench = self.bench
        t0 = _clock()
        self.engine.step()
        user = self.user(i)
        # T4 reads the live snapshot, so its answer tells the client the
        # stable SN the tick's other queries are phrased against.
        self._submit("T4", bench.temporal_query("T4", start_user=user), out)
        stable = self.stable
        self._submit("T1", bench.temporal_query(
            "T1", start_user=user, snapshot=max(1, stable - i % 8)), out)
        if i % 5 == 0:
            cls = "T2" if i % 10 else "T3"
            self._submit(cls, bench.temporal_query(
                cls, ts_from=max(1, stable // 2), ts_to=max(2, stable)), out)
        return Step(_clock() - t0, self.offered[i], True, tuple(out))

    def _submit(self, cls: str, text: str, out: list) -> None:
        t0 = _clock()
        try:
            result = self.pool.submit(text)
            if cls == "T4":
                self.stable = result.snapshot
        except Exception as exc:  # client-op boundary: record, go on
            result = exc
        out.append((cls, text, result, _clock() - t0))


WORKLOADS = {cls.name: cls
             for cls in (Ingest, Standing, Adhoc, ServingMix, History)}
