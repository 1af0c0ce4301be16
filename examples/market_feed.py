"""Market-feed processing: the paper's OPRA motivation (§1), with online
aggregation.

The paper opens with the Options Price Reporting Authority feed — tens of
millions of quote/trade messages per second — as the motivating case for
sub-millisecond stateful stream querying.  This example models a miniature
market:

* stored data: instruments, their issuing sectors and listing exchanges;
* a trade stream: ``<order, fills, instrument>`` plus ``<order, px, price>``
  tuples;
* continuous queries with FILTER and GROUP BY aggregation: per-sector
  trade counts and average prices over a sliding window, plus a
  price-spike monitor anchored on one instrument;
* one-shot queries over the absorbed trade history.

Run with:  python examples/market_feed.py
"""

from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.rdf.terms import TimedColumns, Triple
from repro.sim.rng import make_rng, zipf_choice
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

SECTORS = {"ACME": "tech", "GLOBEX": "tech", "INITECH": "energy",
           "HOOLI": "tech", "UMBRELLA": "pharma", "STARK": "energy"}
DURATION_MS = 6_000
TRADES_PER_SECOND = 400


def static_market():
    triples = []
    for symbol, sector in SECTORS.items():
        triples.append(Triple(symbol, "inSector", sector))
        triples.append(Triple(symbol, "listedOn", "NYSE"))
    return triples


def trade_stream(seed=2017):
    """Deterministic trades: Zipf-hot symbols, prices drifting by symbol."""
    rng = make_rng(seed, "market")
    symbols = list(SECTORS)
    tuples = TimedColumns()
    base_price = {symbol: 100 + 25 * i for i, symbol in enumerate(symbols)}
    interval = 1000.0 / TRADES_PER_SECOND
    when = 0.0
    order = 0
    while when < DURATION_MS:
        when += interval
        symbol = zipf_choice(rng, symbols)
        price = base_price[symbol] + rng.randrange(-5, 6)
        order_id = f"O{order}"
        order += 1
        ts = int(when)
        tuples.s.extend((order_id, order_id))
        tuples.p.extend(("fills", "px"))
        tuples.o.extend((symbol, str(price)))
        tuples.ts.extend((ts, ts))
    return tuples


SECTOR_VOLUME = """
REGISTER QUERY sector_volume AS
SELECT ?sector COUNT(?order) AS ?trades AVG(?price) AS ?avg_px
FROM Trades [RANGE 1s STEP 1s]
FROM Market
WHERE {
    GRAPH Trades { ?order fills ?symbol . ?order px ?price }
    GRAPH Market { ?symbol inSector ?sector }
}
GROUP BY ?sector
"""

SPIKE_MONITOR = """
REGISTER QUERY acme_spikes AS
SELECT ?order ?price
FROM Trades [RANGE 1s STEP 1s]
WHERE {
    GRAPH Trades { ?order fills ACME . ?order px ?price .
                   FILTER (?price >= 104) }
}
"""


def main():
    engine = WukongSEngine(
        schemas=[StreamSchema("Trades")],
        config=EngineConfig(num_nodes=4, batch_interval_ms=100))
    engine.load_static(static_market())
    source = StreamSource(engine.schemas["Trades"])
    source.queue_tuples(trade_stream(), 0, 100)
    engine.attach_source(source)

    volume = engine.register_continuous(SECTOR_VOLUME)
    spikes = engine.register_continuous(SPIKE_MONITOR)
    engine.run_until(DURATION_MS)

    print(f"market feed: ~{TRADES_PER_SECOND} trades/s over "
          f"{len(SECTORS)} symbols, {DURATION_MS // 1000}s simulated\n")

    latest = volume.executions[-1]
    print(f"sector volume at t={latest.close_ms / 1000:.0f}s "
          f"({latest.latency_ms:.3f} ms simulated):")
    for row in latest.result.rows:
        sector = engine.strings.entity_name(row[0])
        print(f"  {sector:8s}  trades={row[1]:4d}  avg px={row[2]:.2f}")

    spike_count = sum(len(rec.result.rows) for rec in spikes.executions)
    print(f"\nACME price spikes (px >= 104) flagged: {spike_count} across "
          f"{len(spikes.executions)} windows")

    record = engine.oneshot(
        "SELECT ?symbol COUNT(?order) AS ?n WHERE "
        "{ ?order fills ?symbol } GROUP BY ?symbol")
    print(f"\nall-time trade counts (one-shot over the evolving store, "
          f"{record.latency_ms:.3f} ms):")
    for row in sorted(record.result.rows, key=lambda r: -r[1])[:3]:
        print(f"  {engine.strings.entity_name(row[0]):8s}  {row[1]} trades")


if __name__ == "__main__":
    main()
