"""Sharded and fanned-out execution over the unified API.

:class:`ParallelRunner` is a cache tier plus a shard plan on top of the
one process executor, :class:`~repro.serving.pool.WorkerPool`.
:meth:`~ParallelRunner.run` horizontally scales one batched scenario:
the spec's batch is split into per-worker windows
(:func:`~repro.parallel.sharding.plan_shards`), each window executes on
a worker via the engine's ``execute_window`` shard hook
(:func:`run_shard`), and the shard results merge deterministically
(:func:`merge_shard_results`) --

* per-item costs concatenate in original batch order;
* the whole-run :class:`~repro.api.result.CostSummary` is re-aggregated
  by the engine's own ``aggregate_cost`` fold over that concatenation
  (same float-addition order as ``workers=1``, so totals are
  bit-identical, not merely close);
* outputs merge through the workload adapter's ``merge_shard_outputs``;
* provenance records the shard plan and per-shard wall times.

:meth:`~ParallelRunner.run_many` fans whole specs across the workers
instead.  Either way, work runs on an attached long-lived pool
(``executor=``) or on a pool started and shut down inside the call; a
call that comes down to a single task runs in-process.

Determinism holds because every adapter derives item ``i``'s data from
``(spec.seed, i)`` alone (see :mod:`repro.api.workloads`): a window
generates exactly the slice of the batch it covers.  The suite in
``tests/parallel/test_determinism.py`` pins ``workers=1 == workers=N``
exactly, for every shardable engine.

A :class:`~repro.parallel.cache.ResultCache` can be attached; cache
lookups happen before any worker starts, so a warm cache serves
repeated runs (figure regenerations, sweep re-runs) without compute.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Mapping, Sequence

from repro.api.engines import Engine, run_provenance
from repro.api.result import (
    AccuracySummary,
    CostSummary,
    FidelitySummary,
    RunResult,
)
from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.obs.trace import span
from repro.parallel.cache import ResultCache

__all__ = [
    "ParallelRunner",
    "ShardResult",
    "merge_shard_results",
    "run_shard",
]


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """What one worker returns for one batch window.

    Attributes:
        offset: first absolute batch index of the window.
        count: window length.
        outputs: the windowed adapter's outputs dict.
        base_cost: window-independent base cost (identical across
            shards of one spec; the merge uses shard 0's).
        item_costs: one cost record per window item, in window order.
        fidelity: the window's fabric-fidelity summary (None for ideal
            specs); folded across shards by the engine's declared
            ``merge_window_fidelity`` policy.
        accuracy: the window's application-accuracy summary (None for
            engines without an accuracy axis); folded across shards by
            ``merge_window_accuracy``.
        wall_seconds: the worker's execution wall time.
    """

    offset: int
    count: int
    outputs: dict[str, Any]
    base_cost: CostSummary
    item_costs: tuple[CostSummary, ...]
    wall_seconds: float
    fidelity: FidelitySummary | None = None
    accuracy: AccuracySummary | None = None


def run_shard(task: tuple[ScenarioSpec, int, int]) -> ShardResult:
    """Worker body: execute one batch window of ``spec``.

    The ``"window"`` task of :class:`~repro.serving.pool.WorkerPool`,
    in its worker processes and inline alike.
    """
    spec, offset, count = task
    started = time.perf_counter()
    with span("shard.window", offset=offset, count=count):
        engine = Engine.from_spec(spec)
        adapter = adapter_for(spec, engine.name, window=(offset, count))
        engine.check_params(adapter)
        outputs, base, item_costs = engine.execute_window(adapter)
    return ShardResult(
        offset=offset,
        count=count,
        outputs=outputs,
        base_cost=base,
        item_costs=tuple(item_costs),
        wall_seconds=time.perf_counter() - started,
        fidelity=engine.window_fidelity(),
        accuracy=engine.window_accuracy(),
    )


def merge_shard_results(
    spec: ScenarioSpec,
    engine: Engine,
    shard_results: Sequence[ShardResult],
    parallel_provenance: Mapping[str, Any],
    wall_seconds: float,
) -> RunResult:
    """Fold per-window shard results into the whole-run RunResult.

    Called by :meth:`~repro.serving.pool.WorkerPool.run` once every
    window is back: per-item costs concatenate in plan order, the run
    cost is re-aggregated by the engine's own fold over that
    concatenation (same float-addition order as ``workers=1``), outputs
    merge through the workload adapter, and fidelity/accuracy fold by
    the engine's declared policies -- which is what keeps
    ``workers=N`` bit-identical to ``workers=1``.

    Args:
        spec: the scenario the shards belong to.
        engine: a bound engine for ``spec`` (merge policies live on the
            class; the instance is not re-executed).
        shard_results: one :class:`ShardResult` per window, in plan
            (ascending offset) order.
        parallel_provenance: the executor's scheduling record (worker
            counts, pool flavour, per-shard wall times); stored under
            ``provenance["parallel"]``.
        wall_seconds: the whole sharded run's wall time.
    """
    shard_results = list(shard_results)
    with span("shards.merge", shards=len(shard_results)):
        merge_adapter = adapter_for(spec, engine.name)
        outputs = merge_adapter.merge_shard_outputs(
            [s.outputs for s in shard_results])
        item_costs = tuple(
            c for s in shard_results for c in s.item_costs)
        cost = type(engine).aggregate_cost(
            shard_results[0].base_cost, list(item_costs))
        fidelity = type(engine).merge_window_fidelity(
            [s.fidelity for s in shard_results])
        accuracy = type(engine).merge_window_accuracy(
            [s.accuracy for s in shard_results])
    return RunResult(
        spec=spec,
        outputs=outputs,
        cost=cost,
        item_costs=item_costs,
        provenance=run_provenance(spec, engine.name, wall_seconds,
                                  parallel=parallel_provenance),
        fidelity=fidelity,
        accuracy=accuracy,
    )


def _pool(workers: int, mode: str):
    """An unstarted :class:`~repro.serving.pool.WorkerPool`.

    Building one starts no process but validates ``workers`` and
    ``mode``.
    """
    # Imported on use: repro.serving.pool imports run_shard and
    # merge_shard_results from this module.
    from repro.serving.pool import WorkerPool

    return WorkerPool(workers, mode=mode)


class ParallelRunner:
    """Run scenarios across worker processes, with optional caching.

    Args:
        workers: worker process count (1 = in-process execution).
        cache: a :class:`ResultCache`, a cache directory path, or None.
        pool: start method of the pool each call starts -- "auto" (fork
            where available, else spawn), "fork", "forkserver",
            "spawn", or "inline" (serial in-process execution of the
            identical shard plan).  A call with a single task (one
            shard, one cache miss) runs inline whatever the mode.
        executor: an optional started
            :class:`~repro.serving.pool.WorkerPool` shared across calls:
            cache handling stays here, execution and shard merging run
            on its warm workers (same shard plan, same merge, identical
            results -- without starting processes per call).
            ``workers``/``pool`` are ignored while an executor is
            attached.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | None = None,
        pool: str = "auto",
        executor=None,
    ) -> None:
        _pool(workers, pool)  # validates workers and pool up front
        if executor is not None and not (
                callable(getattr(executor, "run", None))
                and callable(getattr(executor, "run_many", None))):
            raise ValueError(
                "executor must provide run(spec) and run_many(specs) "
                f"(e.g. a started WorkerPool), got {executor!r}")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.workers = workers
        self.cache = cache
        self.pool = pool
        self.executor = executor

    def run(self, spec: ScenarioSpec | Mapping[str, Any]) -> RunResult:
        """Execute one scenario, sharded across the workers.

        Cache hits return immediately; misses run (sharded when the
        engine supports it and ``workers > 1``) and are stored.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        if self.cache is not None:
            cached = self.cache.load(spec)
            if cached is not None:
                return cached
        if self.executor is not None:
            result = self.executor.run(spec)
        else:
            # One task per batch item at most; the pool decides whether
            # the spec shards.
            with self._transient(spec.batch) as pool:
                result = pool.run(spec)
            if "parallel" in result.provenance:
                # This pool lived for one call: not a warm one.
                result.provenance["parallel"]["pool"] = pool.mode
        if self.cache is not None:
            self.cache.store(result)
        return result

    def run_many(
        self, specs: Sequence[ScenarioSpec | Mapping[str, Any]]
    ) -> list[RunResult]:
        """Execute many specs, fanning whole specs across the workers.

        The coarse-grained counterpart of :meth:`run`: each spec is one
        pool task (no per-spec sharding), which is the right split for
        sweeps of many small scenarios.  Results come back in input
        order; cached specs are served without occupying a worker.
        """
        resolved = [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in specs
        ]
        results: list[RunResult | None] = [None] * len(resolved)
        misses: list[int] = []
        for i, spec in enumerate(resolved):
            cached = self.cache.load(spec) if self.cache is not None \
                else None
            if cached is not None:
                results[i] = cached
            else:
                misses.append(i)
        missing = [resolved[i] for i in misses]
        if self.executor is not None:
            fresh = self.executor.run_many(missing)
        elif missing:
            with self._transient(len(missing)) as pool:
                fresh = pool.run_many(missing)
        else:
            fresh = []
        for i, result in zip(misses, fresh):
            if self.cache is not None:
                self.cache.store(result)
            results[i] = result
        return results  # type: ignore[return-value]

    def _transient(self, tasks: int):
        """The pool a call with ``tasks`` tasks starts and shuts down.

        At most one worker per task; a single worker runs in-process.
        """
        workers = min(self.workers, tasks)
        return _pool(workers, self.pool if workers > 1 else "inline")
