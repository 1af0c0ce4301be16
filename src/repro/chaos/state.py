"""Deep, JSON-safe digests of an engine's queryable state.

:func:`engine_state_digest` captures everything that determines query
answers — per-shard value lists with their snapshot numbers, shard index
vertices, stream-index slices and spans, transient slices, the
coordinator's vector timestamps / SN plan, and delivery bookkeeping — as a
canonical nested structure of plain JSON types.  Two engines with equal
digests answer every query identically, at every snapshot; the
recovery-equivalence invariant is ``digest(faulted+recovered) ==
digest(never_faulted)``.

Deliberately excluded: anything that is *allowed* to differ after a heal —
latency meters, GC eviction counters (a recovered node's rebuilt transient
store re-collects slices the original collected incrementally), checkpoint
pause bookkeeping, and the chaos chronicle itself.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.core.engine import WukongSEngine


def _shard_digest(shard) -> dict:
    values = {}
    for key in sorted(shard.iter_keys()):
        values[str(key)] = [list(shard.lookup(key)), shard.versions(key)]
    index = {f"{eid}:{d}": list(vids)
             for (eid, d), vids in sorted(shard._index.items())}
    return {"values": values, "index": index}


def _stream_index_digest(index) -> dict:
    slices = []
    for piece in index._slices:
        entries = {}
        for key in sorted(piece.entries):
            entries[str(key)] = [list(piece.entries[key])]
        vertices = {f"{eid}:{d}": sorted(members)
                    for (eid, d), members in sorted(piece.vertices.items())}
        slices.append({"batch_no": piece.batch_no, "entries": entries,
                       "vertices": vertices})
    return {"slices": slices, "batch_nos": list(index._batch_nos),
            "collected_before": index.collected_before}


def _transient_digest(store) -> dict:
    slices = []
    for piece in store._slices:
        kv = {str(key): list(vals)
              for key, vals in sorted(piece.kv.items())}
        subjects = {f"{eid}:{d}": sorted(members)
                    for (eid, d), members in sorted(piece.subjects.items())}
        slices.append({"batch_no": piece.batch_no, "kv": kv,
                       "subjects": subjects,
                       "num_tuples": piece.num_tuples})
    return {"slices": slices, "expired_floor": store._expired_floor}


def engine_state_digest(engine: WukongSEngine) -> Dict:
    """The engine's complete queryable state as canonical JSON types."""
    coordinator = engine.coordinator
    digest = {
        "clock_ms": engine.clock.now_ms,
        "shards": [_shard_digest(shard) for shard in engine.store.shards],
        "stream_indexes": {
            stream: _stream_index_digest(engine.registry.index(stream))
            for stream in engine.registry.streams
        },
        "replicas": {stream: sorted(engine.registry.replicas(stream))
                     for stream in engine.registry.streams},
        "transients": {
            stream: [_transient_digest(store) for store in stores]
            for stream, stores in sorted(engine.transients.items())
        },
        "coordinator": {
            "local_vts": [dict(sorted(vts.as_dict().items()))
                          for vts in coordinator.local_vts],
            "local_sn": list(coordinator.local_sn),
            "stable_sn": coordinator.stable_sn,
            "compacted_through": coordinator.compacted_through,
            "plan_latest_sn": coordinator.plan.latest_sn,
            "plan_mappings": [dict(sorted(m.upper.items()))
                              for m in coordinator.plan._mappings],
        },
        "last_delivered": dict(sorted(engine._last_delivered.items())),
        "queries": {
            name: {"home_node": handle.home_node,
                   "next_close_ms": handle.next_close_ms,
                   "executions": len(handle.executions)}
            for name, handle in sorted(engine.continuous.queries.items())
        },
    }
    return digest


def digest_sha256(digest: Dict) -> str:
    """A stable fingerprint of a digest (golden files store this)."""
    canonical = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def diff_digests(a: Dict, b: Dict, prefix: str = "") -> List[str]:
    """Human-readable paths where two digests disagree (first ~20)."""
    problems: List[str] = []

    def walk(x, y, path):
        if len(problems) >= 20:
            return
        if type(x) is not type(y):
            problems.append(f"{path}: type {type(x).__name__} vs "
                            f"{type(y).__name__}")
        elif isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    problems.append(f"{path}.{key}: missing on left")
                elif key not in y:
                    problems.append(f"{path}.{key}: missing on right")
                else:
                    walk(x[key], y[key], f"{path}.{key}")
        elif isinstance(x, list):
            if len(x) != len(y):
                problems.append(f"{path}: length {len(x)} vs {len(y)}")
            for i, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{path}[{i}]")
        elif x != y:
            problems.append(f"{path}: {x!r} vs {y!r}")

    walk(a, b, prefix or "digest")
    return problems
