"""The Wukong base store: sharded key/value graph storage and the
graph-exploration query executor."""

from repro.store.kvstore import ShardStore
from repro.store.distributed import DistributedStore, StoreAccess
from repro.store.executor import GraphExplorer, ExecutionResult

__all__ = [
    "ShardStore",
    "DistributedStore",
    "StoreAccess",
    "GraphExplorer",
    "ExecutionResult",
]
