"""Spatial sharding: plan, worker processes, scatter-gather router.

The DS-Search workload is embarrassingly partitionable in anchor space
(DESIGN.md §15): a :class:`ShardPlan` tiles the plane into per-shard
anchor domains with a query-size halo of data, a :class:`ShardWorker`
process owns one shard's `RegionService` (CSV + bundle + WAL triple),
and a :class:`ShardRouter` fans queries out and merges the per-shard
canonical answers into the bitwise-identical result an unsharded
session would return.
"""

from .plan import PlanMismatchError, ShardPlan, split_dataset
from .router import ShardRouter
from .worker import LocalShardBackend, ProcessShardBackend, ShardOpenError

__all__ = [
    "LocalShardBackend",
    "PlanMismatchError",
    "ProcessShardBackend",
    "ShardOpenError",
    "ShardPlan",
    "ShardRouter",
    "split_dataset",
]
