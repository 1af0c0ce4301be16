"""A deterministic miniature of CityBench (smart-city RSP benchmark).

CityBench [12] replays IoT sensor streams from the city of Aarhus: vehicle
traffic (VT1-2), parking availability (PK1-2), weather (WT), user location
(UL) and pollution (PL1-5), over a small static graph of sensors, roads,
areas and parking lots.  Rates are tiny (Table 1: 4-19 tuples/s) and are
used unscaled; windows default to the paper's RANGE 3s STEP 1s.

The static graph is generated so every query has matches: road *i*
connects road *i+1*; VT1/VT2 sensor *i* sits on road *i*; parking lots sit
near roads; weather stations, users and roads belong to areas.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rdf.terms import TimedColumns, Triple
from repro.sim.rng import make_rng
from repro.streams.stream import StreamSchema

#: Paper stream rates in tuples per second (Table 1).
PAPER_RATES = {
    "VT1": 19.0,
    "VT2": 19.0,
    "WT": 12.0,
    "UL": 7.0,
    "PK1": 4.0,
    "PK2": 4.0,
    "PL1": 4.0,
    "PL2": 4.0,
    "PL3": 4.0,
    "PL4": 4.0,
    "PL5": 4.0,
}

#: Streams used by each continuous query (approximating Table 1's matrix).
QUERY_STREAMS = {
    "C1": ["VT1", "VT2"],
    "C2": ["VT1", "VT2"],
    "C3": ["VT2", "WT"],
    "C4": ["VT2", "UL"],
    "C5": ["VT2", "PK1"],
    "C6": ["PK1", "PK2"],
    "C7": ["PK1", "PK2"],
    "C8": ["WT", "UL"],
    "C9": ["PK1", "PK2"],
    "C10": ["PL1"],
    "C11": ["VT1"],
}

#: Queries with no stored part (run entirely on streaming data).
STREAM_ONLY = ("C10", "C11")

ALL_QUERIES = tuple(QUERY_STREAMS)


@dataclass
class CityBenchConfig:
    """Scale knobs (defaults approximate the paper's 139K-triple city)."""

    num_roads: int = 40
    num_areas: int = 8
    sensors_per_stream: int = 16
    lots_per_stream: int = 12
    num_stations: int = 8
    num_citizens: int = 64
    congestion_levels: int = 5
    window_range_ms: int = 3_000
    window_step_ms: int = 1_000
    seed: int = 7

    @staticmethod
    def tiny() -> "CityBenchConfig":
        return CityBenchConfig(num_roads=10, num_areas=3,
                               sensors_per_stream=5, lots_per_stream=4,
                               num_stations=3, num_citizens=12)


class CityBench:
    """Generator + query catalogue for C1-C11."""

    def __init__(self, config: Optional[CityBenchConfig] = None):
        self.config = config if config is not None else CityBenchConfig()

    # -- vocabulary ---------------------------------------------------------
    @staticmethod
    def road(i: int) -> str:
        return f"Road{i}"

    @staticmethod
    def area(i: int) -> str:
        return f"Area{i}"

    def schemas(self) -> List[StreamSchema]:
        """All eleven streams are timeless observations in our model."""
        return [StreamSchema(name) for name in PAPER_RATES]

    def rates(self) -> Dict[str, float]:
        return dict(PAPER_RATES)

    #: predicate per stream
    _STREAM_PRED = {
        "VT1": "congestion", "VT2": "congestion", "WT": "temp",
        "UL": "at", "PK1": "avail", "PK2": "avail",
        "PL1": "pollution", "PL2": "pollution", "PL3": "pollution",
        "PL4": "pollution", "PL5": "pollution",
    }

    def _subjects(self, stream: str) -> List[str]:
        cfg = self.config
        if stream in ("VT1", "VT2"):
            return [f"{stream}_S{i}" for i in range(cfg.sensors_per_stream)]
        if stream == "WT":
            return [f"WT_S{i}" for i in range(cfg.num_stations)]
        if stream == "UL":
            return [f"Citizen{i}" for i in range(cfg.num_citizens)]
        if stream in ("PK1", "PK2"):
            return [f"{stream}_L{i}" for i in range(cfg.lots_per_stream)]
        return [f"{stream}_S{i}" for i in range(cfg.sensors_per_stream)]

    # -- static data ----------------------------------------------------------
    def static_triples(self) -> List[Triple]:
        cfg = self.config
        triples: List[Triple] = []

        for i in range(cfg.num_roads):
            triples.append(Triple(self.road(i), "ty", "Road"))
            triples.append(Triple(self.road(i), "inArea",
                                  self.area(i % cfg.num_areas)))
            if i + 1 < cfg.num_roads:
                triples.append(Triple(self.road(i), "connects",
                                      self.road(i + 1)))

        for stream in ("VT1", "VT2"):
            for i, sensor in enumerate(self._subjects(stream)):
                triples.append(Triple(sensor, "ty", "TrafficSensor"))
                triples.append(Triple(sensor, "onRoad",
                                      self.road(i % cfg.num_roads)))

        for stream in ("PK1", "PK2"):
            for i, lot in enumerate(self._subjects(stream)):
                triples.append(Triple(lot, "ty", "ParkingLot"))
                triples.append(Triple(lot, "nearRoad",
                                      self.road(i % cfg.num_roads)))

        for i, station in enumerate(self._subjects("WT")):
            triples.append(Triple(station, "ty", "WeatherStation"))
            triples.append(Triple(station, "inArea",
                                  self.area(i % cfg.num_areas)))

        for pl in ("PL1", "PL2", "PL3", "PL4", "PL5"):
            for i, sensor in enumerate(self._subjects(pl)):
                triples.append(Triple(sensor, "ty", "PollutionSensor"))
                triples.append(Triple(sensor, "inArea",
                                      self.area(i % cfg.num_areas)))

        for i in range(cfg.num_citizens):
            triples.append(Triple(f"Citizen{i}", "ty", "Person"))

        return triples

    # -- streams -----------------------------------------------------------------
    def generate_streams(self, duration_ms: int, start_ms: int = 0
                         ) -> Dict[str, TimedColumns]:
        """All eleven streams for ``duration_ms``, time-ordered, each built
        as four columns (no object per tuple)."""
        cfg = self.config
        rng = make_rng(cfg.seed, "city-streams", duration_ms)
        out = {name: TimedColumns() for name in PAPER_RATES}

        heap: List[Tuple[float, int, str]] = []
        for order, (stream, rate) in enumerate(sorted(PAPER_RATES.items())):
            heapq.heappush(heap, (start_ms + 1000.0 / rate, order, stream))

        while heap:
            when, order, stream = heapq.heappop(heap)
            if when >= start_ms + duration_ms:
                continue
            heapq.heappush(heap, (when + 1000.0 / PAPER_RATES[stream],
                                  order, stream))
            subjects = self._subjects(stream)
            subject = subjects[rng.randrange(len(subjects))]
            predicate = self._STREAM_PRED[stream]
            if stream == "UL":
                value = self.area(rng.randrange(cfg.num_areas))
            elif stream in ("VT1", "VT2"):
                value = f"Level{rng.randrange(cfg.congestion_levels)}"
            elif stream == "WT":
                value = f"Temp{rng.randrange(-5, 35)}"
            elif stream in ("PK1", "PK2"):
                value = f"Spots{rng.randrange(0, 200)}"
            else:
                value = f"AQI{rng.randrange(0, 300)}"
            columns = out[stream]
            columns.s.append(subject)
            columns.p.append(predicate)
            columns.o.append(value)
            columns.ts.append(int(when))
        return out

    # -- queries -----------------------------------------------------------------
    def continuous_query(self, name: str, variant: int = 0,
                         range_ms: Optional[int] = None,
                         step_ms: Optional[int] = None) -> str:
        """The C-SPARQL text of C1..C11.

        ``variant`` rotates the constant start entities of selective
        queries across sensors/roads/citizens.
        """
        cfg = self.config
        r = range_ms if range_ms is not None else cfg.window_range_ms
        s = step_ms if step_ms is not None else cfg.window_step_ms

        def win(stream: str) -> str:
            return f"FROM {stream} [RANGE {r}ms STEP {s}ms]"

        vt1 = f"VT1_S{variant % cfg.sensors_per_stream}"
        road0 = self.road(variant % cfg.num_roads)
        citizen = f"Citizen{variant % cfg.num_citizens}"

        templates = {
            "C1": f"""
                REGISTER QUERY C1 AS
                SELECT ?L1 ?L2 ?S2
                {win('VT1')} {win('VT2')} FROM City
                WHERE {{
                    GRAPH City {{ {vt1} onRoad ?R . ?S2 onRoad ?R .
                                  ?S2 ty TrafficSensor }}
                    GRAPH VT1 {{ {vt1} congestion ?L1 }}
                    GRAPH VT2 {{ ?S2 congestion ?L2 }}
                }}
            """,
            "C2": f"""
                REGISTER QUERY C2 AS
                SELECT ?L1 ?L2 ?R2
                {win('VT1')} {win('VT2')} FROM City
                WHERE {{
                    GRAPH City {{ {vt1} onRoad ?R1 . ?R1 connects ?R2 .
                                  ?S2 onRoad ?R2 }}
                    GRAPH VT1 {{ {vt1} congestion ?L1 }}
                    GRAPH VT2 {{ ?S2 congestion ?L2 }}
                }}
            """,
            "C3": f"""
                REGISTER QUERY C3 AS
                SELECT ?S ?L ?T
                {win('VT2')} {win('WT')} FROM City
                WHERE {{
                    GRAPH City {{ ?S onRoad {road0} . ?W inArea ?A .
                                  {road0} inArea ?A }}
                    GRAPH VT2 {{ ?S congestion ?L }}
                    GRAPH WT {{ ?W temp ?T }}
                }}
            """,
            "C4": f"""
                REGISTER QUERY C4 AS
                SELECT ?A ?S ?L
                {win('VT2')} {win('UL')} FROM City
                WHERE {{
                    GRAPH UL {{ {citizen} at ?A }}
                    GRAPH City {{ ?R inArea ?A . ?S onRoad ?R }}
                    GRAPH VT2 {{ ?S congestion ?L }}
                }}
            """,
            "C5": f"""
                REGISTER QUERY C5 AS
                SELECT ?P ?N ?L
                {win('VT2')} {win('PK1')} FROM City
                WHERE {{
                    GRAPH City {{ ?P nearRoad {road0} . ?S onRoad {road0} }}
                    GRAPH PK1 {{ ?P avail ?N }}
                    GRAPH VT2 {{ ?S congestion ?L }}
                }}
            """,
            "C6": f"""
                REGISTER QUERY C6 AS
                SELECT ?P1 ?N1 ?P2 ?N2
                {win('PK1')} {win('PK2')} FROM City
                WHERE {{
                    GRAPH City {{ ?P1 nearRoad {road0} .
                                  ?P2 nearRoad {road0} }}
                    GRAPH PK1 {{ ?P1 avail ?N1 }}
                    GRAPH PK2 {{ ?P2 avail ?N2 }}
                }}
            """,
            "C7": f"""
                REGISTER QUERY C7 AS
                SELECT ?P1 ?P2 ?N1 ?N2
                {win('PK1')} {win('PK2')} FROM City
                WHERE {{
                    GRAPH City {{ ?P1 nearRoad ?R . ?R connects ?R2 .
                                  ?P2 nearRoad ?R2 }}
                    GRAPH PK1 {{ ?P1 avail ?N1 }}
                    GRAPH PK2 {{ ?P2 avail ?N2 }}
                }}
            """,
            "C8": f"""
                REGISTER QUERY C8 AS
                SELECT ?A ?W ?T
                {win('WT')} {win('UL')} FROM City
                WHERE {{
                    GRAPH UL {{ {citizen} at ?A }}
                    GRAPH City {{ ?W inArea ?A }}
                    GRAPH WT {{ ?W temp ?T }}
                }}
            """,
            "C9": f"""
                REGISTER QUERY C9 AS
                SELECT ?P1 ?P2 ?N1 ?N2
                {win('PK1')} {win('PK2')} FROM City
                WHERE {{
                    GRAPH City {{ ?P1 nearRoad ?R . ?P2 nearRoad ?R }}
                    GRAPH PK1 {{ ?P1 avail ?N1 }}
                    GRAPH PK2 {{ ?P2 avail ?N2 }}
                }}
            """,
            "C10": f"""
                REGISTER QUERY C10 AS
                SELECT ?S ?V
                {win('PL1')}
                WHERE {{ GRAPH PL1 {{ ?S pollution ?V }} }}
            """,
            "C11": f"""
                REGISTER QUERY C11 AS
                SELECT ?L
                {win('VT1')}
                WHERE {{ GRAPH VT1 {{ {vt1} congestion ?L }} }}
            """,
        }
        if name not in templates:
            raise KeyError(f"unknown CityBench query: {name}")
        return templates[name]
