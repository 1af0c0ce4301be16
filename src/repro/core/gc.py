"""The garbage collector for transient slices and stream-index slices.

Timing data and stream-index entries are only needed while some registered
continuous query's window can still reach them (§4.1-4.2).  The collector
computes, per stream, the earliest batch any query still needs — the
*expiry floor* — and frees everything older, from the early side of the
time-ordered slice sequences.  Streams no registered query consumes fall
back to a configurable retention horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.continuous import ContinuousEngine
from repro.core.stream_index import StreamIndexRegistry
from repro.core.transient import TransientStore
from repro.sim.cost import LatencyMeter
from repro.streams.window import batches_closed_by


@dataclass
class GCStats:
    """Cumulative collection counters."""

    runs: int = 0
    transient_slices_freed: int = 0
    index_slices_freed: int = 0


class GarbageCollector:
    """Periodic background collection over every stream's stores."""

    def __init__(self, registry: StreamIndexRegistry,
                 transients: Dict[str, List[TransientStore]],
                 continuous: ContinuousEngine,
                 batch_interval_ms: int, retention_ms: int):
        self.registry = registry
        self.transients = transients
        self.continuous = continuous
        self.batch_interval_ms = batch_interval_ms
        self.retention_ms = retention_ms
        self.stats = GCStats()

    def expiry_floor_batch(self, stream: str, now_ms: int) -> int:
        """Batches strictly below this number are unreachable for every
        registered query over ``stream``."""
        floors_ms: List[int] = []
        for registered in self.continuous.queries.values():
            window = registered.query.windows.get(stream)
            if window is not None:
                # The oldest data the *next* execution can reach.
                floors_ms.append(registered.next_close_ms - window.range_ms)
        floor_ms = min(floors_ms) if floors_ms else now_ms - self.retention_ms
        # Batches whose spans close at or before floor_ms are collectable.
        return batches_closed_by(floor_ms, self.batch_interval_ms) + 1

    def run(self, now_ms: int,
            meter: Optional[LatencyMeter] = None) -> GCStats:
        """One collection pass over every stream."""
        self.stats.runs += 1
        for stream in self.registry.streams:
            floor = self.expiry_floor_batch(stream, now_ms)
            self.stats.index_slices_freed += \
                self.registry.index(stream).collect(floor, meter=meter)
            for transient in self.transients.get(stream, []):
                self.stats.transient_slices_freed += \
                    transient.collect(floor, meter=meter)
        return self.stats
