"""Horizontal scale-out for the unified API: shards, sweeps, caching.

The paper's computation-in-memory pitch is throughput at scale; PR 1
added batching (amortize control over B items in one process) and the
facade made every run a pure function of its
:class:`~repro.api.spec.ScenarioSpec`.  This package adds the third
layer: scale-out *across processes*, in three pieces --

* :class:`ParallelRunner` -- split one batched spec into per-worker
  windows, execute them on a :class:`~repro.serving.pool.WorkerPool`
  (attached, or started for the call), merge the shard results
  bit-identically to the single-process run;
* :class:`SweepRunner` / :func:`expand_grid` -- fan a parameter grid of
  whole specs across the workers (the grid-of-configurations evaluation
  style);
* :class:`ResultCache` -- a content-addressed on-disk cache keyed by
  :meth:`ScenarioSpec.canonical_hash`, so repeated runs and figure
  regenerations replay instead of recompute.

All three are reachable from the CLI: ``python -m repro run --workers N
--cache DIR``, ``python -m repro sweep``, ``python -m repro bench
--workers N``.
"""

from repro.parallel.cache import CacheStats, PruneStats, ResultCache
from repro.parallel.runner import (
    ParallelRunner,
    ShardResult,
    merge_shard_results,
    run_shard,
)
from repro.parallel.sharding import plan_shards
from repro.parallel.sweep import SweepRunner, expand_grid

__all__ = [
    "CacheStats",
    "ParallelRunner",
    "PruneStats",
    "ResultCache",
    "ShardResult",
    "SweepRunner",
    "expand_grid",
    "merge_shard_results",
    "plan_shards",
    "run_shard",
]
