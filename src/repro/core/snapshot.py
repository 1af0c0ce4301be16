"""Bounded snapshot scalarization: the SN <-> VTS plan (§4.3, Fig. 11).

One-shot queries must read a consistent snapshot of the evolving persistent
store without the memory cost of stamping every value with a full vector
timestamp.  The coordinator therefore *scalarizes* vector timestamps into
snapshot numbers: it publishes, in advance, a plan mapping each SN to an
inclusive upper bound of batch numbers per stream.  Injectors tag persistent
inserts with the SN their batch falls into; when a batch lies beyond the
last announced mapping the injector must stall until the next mapping is
published — that hand-shake is what bounds the number of live SN segments
per key.

The width of each mapping (how many new batches one SN admits) is the
paper's staleness/flexibility knob: width 1 gives the freshest one-shot
results but serializes injection across streams; larger widths free the
injectors but age the readable snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.errors import ConsistencyError


@dataclass(frozen=True)
class SNMapping:
    """One published mapping: snapshot ``sn`` covers batches up to ``upper``.

    ``upper`` is inclusive per stream; a batch ``b`` of stream ``s`` belongs
    to the smallest published sn with ``upper[s] >= b``.
    """

    sn: int
    upper: Dict[str, int]


class SNVTSPlan:
    """The ordered sequence of published SN mappings.

    >>> plan = SNVTSPlan(["S0", "S1"])
    >>> plan.publish({"S0": 3, "S1": 9})   # SN 1
    1
    >>> plan.publish({"S0": 5, "S1": 12})  # SN 2
    2
    >>> plan.sn_for("S0", 4)
    2
    >>> plan.sn_for("S0", 6) is None       # beyond the plan: injector stalls
    True
    """

    def __init__(self, streams: List[str]):
        self._streams = list(streams)
        self._mappings: List[SNMapping] = []

    # -- publishing ---------------------------------------------------------
    def publish(self, upper: Mapping[str, int]) -> int:
        """Announce the next mapping; returns its snapshot number."""
        if set(upper) != set(self._streams):
            raise ConsistencyError(
                f"mapping must cover exactly the streams {self._streams}, "
                f"got {sorted(upper)}")
        previous = self._mappings[-1].upper if self._mappings else \
            {s: 0 for s in self._streams}
        for stream in self._streams:
            if upper[stream] < previous[stream]:
                raise ConsistencyError(
                    f"mapping must be monotonic: stream {stream} regresses "
                    f"from {previous[stream]} to {upper[stream]}")
        sn = len(self._mappings) + 1
        self._mappings.append(SNMapping(sn, dict(upper)))
        return sn

    def add_stream(self, stream: str) -> None:
        """Extend the VTS part of future mappings with a new stream.

        Existing mappings implicitly cover batch 0 of the new stream — the
        change is transparent to one-shot queries, which only see SNs.
        """
        if stream in self._streams:
            raise ConsistencyError(f"stream already planned: {stream}")
        self._streams.append(stream)
        patched = []
        for mapping in self._mappings:
            upper = dict(mapping.upper)
            upper[stream] = 0
            patched.append(SNMapping(mapping.sn, upper))
        self._mappings = patched

    # -- lookup ------------------------------------------------------------
    def sn_for(self, stream: str, batch_no: int) -> Optional[int]:
        """The SN that batch ``batch_no`` of ``stream`` belongs to.

        None means the batch lies beyond the announced plan and its
        injection must stall until more of the plan is published.

        Bisects the mappings: ``upper[stream] >= batch_no`` is monotone
        in SN, because ``publish`` refuses regressions and ``add_stream``
        back-fills 0, so the lookup costs O(log SNs) however long the
        plan has grown.
        """
        if stream not in self._streams:
            raise ConsistencyError(f"unknown stream: {stream}")
        if batch_no < 1:
            raise ConsistencyError(f"batch numbers are 1-based: {batch_no}")
        mappings = self._mappings
        lo, hi = 0, len(mappings)
        while lo < hi:
            mid = (lo + hi) // 2
            if mappings[mid].upper.get(stream, 0) >= batch_no:
                hi = mid
            else:
                lo = mid + 1
        return mappings[lo].sn if lo < len(mappings) else None

    def requirement_for(self, sn: int) -> Dict[str, int]:
        """The VTS a node must reach for snapshot ``sn`` to be complete there."""
        mapping = self.mapping(sn)
        return dict(mapping.upper)

    def mapping(self, sn: int) -> SNMapping:
        if not 1 <= sn <= len(self._mappings):
            raise ConsistencyError(f"snapshot {sn} was never published")
        return self._mappings[sn - 1]

    @property
    def latest_sn(self) -> int:
        """The highest published snapshot number (0 when nothing published)."""
        return len(self._mappings)

    @property
    def streams(self) -> List[str]:
        return list(self._streams)

    def __len__(self) -> int:
        return len(self._mappings)
