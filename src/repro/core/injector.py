"""The Injector: absorbing dispatched batches into the hybrid store.

One injector per node inserts the node-local halves of each batch:

* timeless tuples go to the persistent store under the batch's snapshot
  number — one arrival-ordered ``(keys, values)`` column per half and
  thread, written with ``ShardStore.append_column``: the keys come from
  the half's vertex and predicate columns, the values are the other
  endpoint's column as dispatched — and the spans that write returns
  become the batch's stream-index slice (the index is built *along
  with* injection, §4.2);
* timing tuples go to the stream's transient store on this node;
* finally the node's Local_VTS advances, making the batch eligible to
  become visible once all nodes have done the same.

When massive streams or high rates demand it, an injector runs multiple
threads: "Wukong+S will statically partition the key space of the store
and exclusively assign one partition to one thread, which can avoid using
locks during injection" (§4.1).  Threads work in parallel, so the batch's
injection latency is the slowest partition's; the dispatcher's by-owner
partitioning already guarantees no cross-node contention.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.dispatcher import NodeBatch
from repro.core.stream_index import IndexSlice
from repro.core.transient import TransientStore
from repro.rdf.ids import DIR_IN, DIR_OUT, _EID_SHIFT, _VID_SHIFT
from repro.rdf.terms import EncodedColumns
from repro.sim.cost import LatencyMeter
from repro.store.distributed import DistributedStore


class Injector:
    """The injector of one node (one or more lock-free threads)."""

    def __init__(self, node_id: int, store: DistributedStore,
                 transients: Dict[str, TransientStore], threads: int = 1):
        if threads < 1:
            raise ValueError(f"need at least one injector thread: {threads}")
        self.node_id = node_id
        self.store = store
        self.transients = transients
        self.threads = threads
        #: The cluster's placement stride: a node only holds vids congruent
        #: to its id modulo num_nodes, so the dispatcher delivers one
        #: residue class per injector.  Dividing it out re-densifies the
        #: local key space before thread partitioning (see ``_partition``).
        self._placement_stride = max(1, len(store.cluster.nodes))
        self.tuples_injected = 0
        #: Straggler multiplier (chaos harness): >1 inflates this node's
        #: injection-branch time by (slowdown-1)x, modelling a server whose
        #: cores are contended.  1.0 on the healthy path charges nothing.
        self.slowdown = 1.0

    def _partition(self, columns: EncodedColumns,
                   by_subject: bool) -> List[EncodedColumns]:
        """Statically split a half's rows by the key-space partition they
        touch: one pass groups row indices by thread slot, then each
        group is taken, in arrival order.

        Thread partitioning must not alias the cluster's modulo placement:
        a node only holds vids congruent to its id modulo num_nodes, so
        ``vid % threads`` would collapse every local key into one slot
        whenever num_nodes shares a factor with threads.  Multiplicative
        mixing is not enough either — the low output bits of a Fibonacci
        hash stay periodic on a strided key domain, which still bucketed
        whole residue classes together.  Dividing the placement stride out
        first makes the node's key space dense again, and round-robin on
        that local index provably balances: over any dense range of local
        keys the slot buckets differ in size by at most one.
        """
        if self.threads == 1:
            return [columns]
        stride = self._placement_stride
        threads = self.threads
        slots: List[List[int]] = [[] for _ in range(threads)]
        for i, vid in enumerate(columns.s if by_subject else columns.o):
            slots[(vid // stride) % threads].append(i)
        return [columns.take(rows) for rows in slots]

    def inject(self, node_batch: NodeBatch, sn: int,
               index_slice: Optional[IndexSlice],
               meter: Optional[LatencyMeter] = None) -> None:
        """Insert one node batch under snapshot ``sn``.

        ``index_slice`` is the (cluster-wide) stream-index slice being
        built for this batch; the injector contributes the spans it
        creates.  It is None for streams carrying only timing data (e.g.
        LSBench's GPS stream), which need no stream index.
        """
        base_ps = meter.ps if meter is not None else 0
        branches: List[LatencyMeter] = []
        out_parts = self._partition(node_batch.out_timeless, True)
        in_parts = self._partition(node_batch.in_timeless, False)
        # The dispatcher routes each half to its key's owner, so every
        # key this injector touches lives on the local shard.
        shard = self.store.shards[self.node_id]
        for thread in range(len(out_parts)):
            # Each thread is one parallel branch of the batch's meter.
            branch = meter.spawn() if meter is not None else None
            self._inject_half(shard, out_parts[thread], True, sn,
                              index_slice, branch)
            self.tuples_injected += len(out_parts[thread])
            self._inject_half(shard, in_parts[thread], False, sn,
                              index_slice, branch)
            if branch is not None:
                branches.append(branch)
        if meter is not None:
            meter.join_parallel(branches)

        if node_batch.out_timing or node_batch.in_timing:
            self._append_timing(node_batch, meter)
        elif node_batch.stream in self.transients:
            # Keep slice numbering aligned even for batches without local
            # timing data: an empty slice is appended so windowed reads and
            # GC see a continuous timeline.
            self.transients[node_batch.stream].append_slice(
                node_batch.batch_no, node_batch.out_timing,
                node_batch.in_timing, meter=meter)

        if meter is not None and self.slowdown > 1.0:
            meter.surcharge(self.slowdown - 1.0, "straggle",
                            since_ps=base_ps)

    def _inject_half(self, shard, part: EncodedColumns,
                     by_subject: bool, sn: int,
                     index_slice: Optional[IndexSlice],
                     meter: Optional[LatencyMeter]) -> None:
        """Insert one half (out- or in-edges) of one thread's partition:
        key the half's vertex and predicate columns, write the keys with
        the other endpoint's column as the values to the shard in one
        call, and hand the spans it returns (one per distinct key,
        already covering the key's whole batch contribution) to the
        stream-index slice.  No other call writes these keys in this
        batch: threads partition by the key's vertex and the two halves
        differ in the direction bit.

        ``make_key`` is inlined — ids come from the string server,
        range-checked at allocation, and this is the hottest loop of
        the pipeline.
        """
        if not part:
            return
        d = DIR_OUT if by_subject else DIR_IN
        vertex, other = (part.s, part.o) if by_subject else (part.o, part.s)
        keys = [(v << _VID_SHIFT) | (p << _EID_SHIFT) | d
                for v, p in zip(vertex, part.p)]
        spans = shard.append_column(keys, other, sn=sn, meter=meter)
        if index_slice is not None:
            index_slice.add_batch_spans(self.node_id, spans)

    def _append_timing(self, node_batch: NodeBatch,
                       meter: Optional[LatencyMeter]) -> None:
        transient = self.transients[node_batch.stream]
        transient.append_slice(node_batch.batch_no,
                               node_batch.out_timing,
                               node_batch.in_timing, meter=meter)
        self.tuples_injected += len(node_batch.out_timing)
