"""Serving: warm worker pool, request coalescer, cache tier, metrics.

The production-traffic layer of the reproduction.  A process started
per run pays fork, interpreter warm-up and cold fabric mapping before
the first item computes; a long-lived pool pays them once:

* :class:`~repro.serving.pool.WorkerPool` -- the process executor:
  worker processes forked once, fed pickled
  :class:`~repro.api.spec.ScenarioSpec` tasks over queues, mapped
  fabrics kept warm across runs keyed by
  :meth:`~repro.api.spec.ScenarioSpec.structure_hash`; health checks,
  crash restarts with bit-identical retries, graceful shutdown.
  :class:`~repro.parallel.runner.ParallelRunner` runs on it too.
* :class:`~repro.serving.service.Service` -- the asyncio front-end:
  in-flight dedup, :class:`~repro.parallel.cache.ResultCache` hits
  answered before a worker is touched, structure-keyed coalescing into
  group dispatches (``max_batch``/``max_wait``), bounded-queue
  backpressure with typed
  :class:`~repro.serving.errors.ServiceOverloaded` rejection.
* :class:`~repro.serving.stats.ServiceStats` -- per-stage counters and
  latency histograms, snapshotted for ``repro serve --stats-json``.

The determinism contract is inherited, not renegotiated: workers run
the ``run_shard`` / ``Engine.from_spec(spec).run()`` bodies and merges
go through :func:`~repro.parallel.runner.merge_shard_results`, so
every result is bit-identical to its single-process counterpart.
"""

from repro.serving.errors import (
    ServiceOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.serving.pool import PoolTask, WorkerPool
from repro.serving.service import Service, serve_all
from repro.serving.stats import (
    LatencyHistogram,
    PoolStats,
    ServiceStats,
    StatsRecorder,
)

__all__ = [
    "LatencyHistogram",
    "PoolStats",
    "PoolTask",
    "Service",
    "ServiceOverloaded",
    "ServiceStats",
    "ServingError",
    "StatsRecorder",
    "WorkerCrashed",
    "WorkerPool",
    "serve_all",
]
