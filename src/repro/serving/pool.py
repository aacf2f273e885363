"""The process executor: warm worker processes serving spec tasks.

A :class:`WorkerPool` forks its workers **once**: long-lived processes
that receive pickled :class:`~repro.api.spec.ScenarioSpec` tasks over
queues, keep their per-process caches warm across runs (the
:mod:`~repro.api.fabric_cache` mapped-fabric store, the workload
adapters' model caches), and stream results back over one private
one-way pipe each.  It is the only executor: the serving
:class:`~repro.serving.service.Service` keeps one for its lifetime, and
:class:`~repro.parallel.runner.ParallelRunner` runs on an attached one
or starts one per call.

Determinism is inherited, not re-proven: workers execute
:func:`~repro.parallel.runner.run_shard` or
``Engine.from_spec(spec).run()``, and sharded merges go through
:func:`~repro.parallel.runner.merge_shard_results` -- so ``workers=N``
stays bit-identical to ``workers=1``, fidelity and accuracy summaries
included.

Robustness contract:

* **health**: a collector thread wakes on worker outbox pipes and
  process sentinels, reaping a dead worker the moment it exits;
  :meth:`WorkerPool.ping` round-trips a token through every worker.
* **crash recovery**: a worker that dies mid-task is restarted and the
  task retried on the fresh worker (bit-identical, because tasks are
  pure functions of their specs); a task that keeps killing workers
  surfaces a typed :class:`~repro.serving.errors.WorkerCrashed` after
  ``max_attempts``.
* **graceful shutdown**: :meth:`WorkerPool.shutdown` drains in-flight
  work, sends each worker a shutdown sentinel, joins with a timeout and
  only then escalates to termination.

The ``inline`` mode runs tasks synchronously in-process with the same
task/merge plumbing and a process-local warm fabric cache (the one
already active, if any) -- the deterministic single-CPU and unit-test
configuration.
"""

from __future__ import annotations

import collections
import multiprocessing
import pickle
import threading
import time
import uuid
from concurrent.futures import Future
from multiprocessing.connection import wait
from typing import Any, Mapping, Sequence

from repro.api.engines import Engine
from repro.api.fabric_cache import (
    FabricCache,
    FabricCacheStats,
    activate_fabric_cache,
    active_fabric_cache,
    deactivate_fabric_cache,
)
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active_tracer, span, traced
from repro.parallel.runner import merge_shard_results, run_shard
from repro.parallel.sharding import plan_shards
from repro.serving.errors import ServingError, WorkerCrashed
from repro.serving.stats import PoolStats

__all__ = ["PoolTask", "WorkerPool"]

_MODES = ("auto", "fork", "forkserver", "spawn", "inline")


def _execute_task(kind: str, payload: Any) -> Any:
    """One task body -- identical in forked workers and inline mode.

    Task kinds:

    * ``"window"`` -- one batch window ``(spec, offset, count)``; the
      sharded-run unit (see :func:`~repro.parallel.runner.run_shard`).
    * ``"spec"`` -- one whole spec; the spec-fan-out unit.
    * ``"group"`` -- a coalesced batch: a list of specs executed
      back-to-back on one warm worker, returning one RunResult each.
      Members run through the plain engine facade, so a group's results
      are bit-identical to serial ``Engine.from_spec(spec).run()``
      calls by construction; the win is shipping one message and
      sharing the worker's warm fabrics across members.
    """
    if kind == "window":
        return run_shard(payload)
    if kind == "spec":
        return Engine.from_spec(payload).run()
    if kind == "group":
        return [Engine.from_spec(spec).run() for spec in payload]
    raise ValueError(f"unknown task kind {kind!r}")


def _sendable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id: int, inbox, outbox, warm_entries: int) -> None:
    """Worker process body: serve tasks until the shutdown sentinel.

    Each worker activates its own process-local
    :class:`~repro.api.fabric_cache.FabricCache` so mapped fabrics stay
    warm across the runs it serves, and piggybacks the cache-counter
    deltas on every completion so the parent can aggregate pool-wide
    warmth statistics.
    """
    cache = activate_fabric_cache(FabricCache(max_entries=warm_entries))
    reported = cache.stats()
    while True:
        message = inbox.get()
        if message[0] == "shutdown":
            outbox.send(("bye", worker_id))
            return
        if message[0] == "ping":
            outbox.send(("pong", worker_id, message[1]))
            continue
        _, dispatch_id, kind, payload, trace_on = message
        outbox.send(("started", worker_id, dispatch_id))
        started = time.perf_counter()
        # Traced dispatches execute under a fresh worker-local tracer;
        # the span records ride the "done" message home so the parent
        # can graft them under the dispatching span (Tracer.adopt).
        tracer = Tracer() if trace_on else None
        try:
            if tracer is not None:
                with traced(tracer):
                    result = _execute_task(kind, payload)
            else:
                result = _execute_task(kind, payload)
        except BaseException as exc:  # noqa: BLE001 -- forwarded whole
            outbox.send(("failed", worker_id, dispatch_id,
                         _sendable_error(exc),
                         time.perf_counter() - started))
            continue
        stats = cache.stats()
        delta = stats.delta(reported)
        reported = stats
        spans = [] if tracer is None \
            else [rec.to_dict() for rec in tracer.records()]
        outbox.send(("done", worker_id, dispatch_id, result,
                     time.perf_counter() - started, delta, spans))


class PoolTask:
    """One submitted task: a future plus dispatch-progress events.

    Attributes:
        future: resolves to the task's result (or raises its error);
            a :class:`concurrent.futures.Future`, so asyncio callers
            can ``await asyncio.wrap_future(task.future)``.
        started: set the first time a worker reports the task began
            executing (used by robustness tests to kill a worker
            provably mid-run, and by health introspection).
    """

    def __init__(self, kind: str, payload: Any) -> None:
        self.kind = kind
        self.payload = payload
        self.future: Future = Future()
        self.started = threading.Event()
        self.attempts = 0
        # Trace linkage for worker-side spans: the submitter's open
        # span (adoption parent) and the parent-clock dispatch instant
        # (adoption offset); only meaningful while a tracer is active.
        self.trace_parent_id: int | None = None
        self.trace_offset = 0.0

    def result(self, timeout: float | None = None) -> Any:
        """Block for the task's result (raises what the task raised)."""
        return self.future.result(timeout)


class _WorkerSlot:
    """Parent-side record of one worker process.

    Each worker owns a private ``outbox``: the receiving end of a
    one-way pipe whose only sender is the worker, so its death reads as
    EOF (even mid-frame) and no survivor shares a pipe a crash could
    corrupt.  A restart replaces both of its channels wholesale.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.inbox = None
        self.outbox = None
        self.dispatch_id: str | None = None
        self.warm_entries_gauge = 0

    @property
    def busy(self) -> bool:
        return self.dispatch_id is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """Long-lived warm workers serving spec tasks over queues.

    Args:
        workers: worker process count (>= 1).
        mode: start method -- "auto" (fork where available, else
            spawn; :attr:`mode` holds the resolved method), "fork",
            "forkserver", "spawn", or "inline" (synchronous in-process
            execution with the same task plumbing; no processes,
            nothing to crash).
        warm_entries: per-worker warm-fabric LRU capacity.
        max_attempts: workers a task may consume before its future
            fails with :class:`~repro.serving.errors.WorkerCrashed`.
    """

    def __init__(
        self,
        workers: int = 2,
        mode: str = "auto",
        warm_entries: int = 8,
        max_attempts: int = 3,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ValueError("workers must be a positive integer")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if mode == "auto":
            available = multiprocessing.get_all_start_methods()
            mode = "fork" if "fork" in available else "spawn"
        if not isinstance(max_attempts, int) \
                or isinstance(max_attempts, bool) or max_attempts < 1:
            raise ValueError("max_attempts must be a positive integer")
        self.workers = workers
        self.mode = mode
        self.warm_entries = warm_entries
        self.max_attempts = max_attempts
        self._lock = threading.RLock()
        self._slots: list[_WorkerSlot] = []
        self._pending: collections.deque[PoolTask] = collections.deque()
        self._dispatches: dict[str, PoolTask] = {}
        self._pongs: dict[str, set[int]] = {}
        self._pong_arrived = threading.Condition(self._lock)
        self._ctx = None
        self._collector: threading.Thread | None = None
        self._running = False
        self._closed = False
        # Lifetime counters: ``pool_*`` series in the unified metrics
        # registry (:mod:`repro.obs.metrics`); compound updates still
        # happen under _lock, :meth:`stats` is the dataclass adapter.
        self.metrics = MetricsRegistry()
        self._restarts = self.metrics.counter("pool_restarts_total")
        self._tasks_done = self.metrics.counter("pool_tasks_done_total")
        self._tasks_failed = self.metrics.counter(
            "pool_tasks_failed_total")
        self._tasks_retried = self.metrics.counter(
            "pool_tasks_retried_total")
        self._busy_seconds = self.metrics.counter(
            "pool_busy_seconds_total")
        self._pending_gauge = self.metrics.gauge("pool_pending_tasks")
        self._running_gauge = self.metrics.gauge("pool_running_tasks")
        self._alive_gauge = self.metrics.gauge("pool_workers_alive")
        self._fabric_totals = FabricCacheStats()
        # Inline mode: the cache shared by in-process execution, and
        # whether start() installed it (else it was already active and
        # shutdown leaves it so).
        self._inline_cache: FabricCache | None = None
        self._owns_cache = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Fork the workers (or install the inline cache) once."""
        with self._lock:
            if self._running:
                return self
            if self._closed:
                raise ServingError("pool already shut down")
            self._running = True
            if self.mode == "inline":
                self._inline_cache = active_fabric_cache()
                self._owns_cache = self._inline_cache is None
                if self._owns_cache:
                    self._inline_cache = activate_fabric_cache(
                        FabricCache(max_entries=self.warm_entries))
                return self
            self._ctx = multiprocessing.get_context(self.mode)
            self._slots = [_WorkerSlot(i) for i in range(self.workers)]
            for slot in self._slots:
                self._start_worker(slot)
        # The collector starts *after* the initial forks so no worker
        # ever snapshots a running parent thread.
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector",
            daemon=True)
        self._collector.start()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain in-flight work, stop the workers, join everything.

        Safe to call twice.  Pending tasks complete first (graceful);
        workers that ignore the sentinel past ``timeout`` are
        terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._dispatches.values()) \
                + list(self._pending)
        deadline = time.monotonic() + timeout
        for task in outstanding:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                task.future.result(remaining)
            except Exception:
                pass  # the submitter owns task errors; drain regardless
        if self.mode == "inline":
            with self._lock:
                self._running = False
                if self._owns_cache:
                    deactivate_fabric_cache()
            return
        with self._lock:
            self._running = False
            slots = list(self._slots)
            for slot in slots:
                if slot.alive():
                    try:
                        slot.inbox.put(("shutdown",))
                    except (OSError, ValueError):
                        pass
        if self._collector is not None:
            self._collector.join(timeout=timeout)
        for slot in slots:
            if slot.process is None:
                continue
            slot.process.join(
                timeout=max(0.0, deadline - time.monotonic()) or 0.1)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
        # Fail anything still unresolved (a worker that had to be
        # terminated mid-task can leave its future hanging).
        with self._lock:
            for task in list(self._dispatches.values()) \
                    + list(self._pending):
                if not task.future.done():
                    task.future.set_exception(
                        ServingError("pool shut down"))
            self._dispatches.clear()
            self._pending.clear()

    # -- submission ------------------------------------------------------------

    def submit(self, kind: str, payload: Any) -> PoolTask:
        """Queue one task; returns its :class:`PoolTask` handle."""
        if kind not in ("window", "spec", "group"):
            raise ValueError(f"unknown task kind {kind!r}")
        task = PoolTask(kind, payload)
        tracer = active_tracer()
        if tracer is not None:
            # Worker-side spans adopt under the submitter's open span.
            task.trace_parent_id = tracer.current_span_id
        with self._lock:
            if not self._running or self._closed:
                raise ServingError("pool is not running")
            if self.mode == "inline":
                self._run_inline(task)
                return task
            self._pending.append(task)
            self._dispatch_pending()
        return task

    def _run_inline(self, task: PoolTask) -> None:
        task.started.set()
        task.attempts = 1
        cache = self._inline_cache
        before = cache.stats()
        started = time.perf_counter()
        try:
            result = _execute_task(task.kind, task.payload)
        except BaseException as exc:  # noqa: BLE001 -- future carries it
            self._busy_seconds.inc(time.perf_counter() - started)
            self._tasks_failed.inc()
            task.future.set_exception(exc)
            return
        self._busy_seconds.inc(time.perf_counter() - started)
        self._tasks_done.inc()
        self._fabric_totals = self._fabric_totals.merged_with(
            cache.stats().delta(before))
        task.future.set_result(result)

    # -- high-level blocking API ----------------------------------------------

    def run(self, spec: ScenarioSpec | Mapping[str, Any]) -> RunResult:
        """Execute one scenario, sharded across the warm workers.

        Unshardable engines and one-shard plans run as one ``"spec"``
        task; otherwise each window is a ``"window"`` task whose worker
        spans graft under the ``shards.dispatch`` span, and the results
        fold through :func:`~repro.parallel.runner.merge_shard_results`.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        engine = Engine.from_spec(spec)
        shards = plan_shards(spec.batch, self.workers)
        if not engine.shardable or len(shards) < 2:
            return self.submit("spec", spec).result()
        # Validate params in the caller so a typoed knob fails with the
        # usual error, not wrapped in a worker traceback.
        engine.check_params(adapter_for(spec, engine.name))
        started = time.perf_counter()
        with span("shards.dispatch", shards=len(shards),
                  workers=self.workers, pool=f"warm-{self.mode}"):
            tasks = [self.submit("window", (spec, offset, count))
                     for offset, count in shards]
            shard_results = [task.result() for task in tasks]
        elapsed = time.perf_counter() - started
        return merge_shard_results(
            spec, engine, shard_results,
            parallel_provenance={
                "workers": self.workers,
                "pool": f"warm-{self.mode}",
                "shards": [
                    {"offset": s.offset, "count": s.count,
                     "wall_seconds": s.wall_seconds}
                    for s in shard_results
                ],
            },
            wall_seconds=elapsed,
        )

    def run_many(
        self, specs: Sequence[ScenarioSpec | Mapping[str, Any]]
    ) -> list[RunResult]:
        """Fan whole specs across the warm workers (input order kept)."""
        resolved = [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in specs
        ]
        tasks = [self.submit("spec", spec) for spec in resolved]
        return [task.result() for task in tasks]

    def run_group(
        self, specs: Sequence[ScenarioSpec]
    ) -> list[RunResult]:
        """One coalesced dispatch: all of ``specs`` on one warm worker."""
        return self.submit("group", list(specs)).result()

    # -- health ----------------------------------------------------------------

    def ping(self, timeout: float = 5.0) -> dict[int, bool]:
        """Round-trip a token through every worker.

        Returns:
            ``{worker_id: responded}``.  A busy worker answers after
            its current task, so a short timeout distinguishes idle
            health from liveness under load.  Inline pools are always
            healthy.
        """
        if self.mode == "inline":
            return {i: True for i in range(self.workers)}
        token = uuid.uuid4().hex
        with self._lock:
            if not self._running:
                raise ServingError("pool is not running")
            self._pongs[token] = set()
            slots = list(self._slots)
            for slot in slots:
                if slot.alive():
                    slot.inbox.put(("ping", token))
        with self._pong_arrived:
            self._pong_arrived.wait_for(
                lambda: len(self._pongs[token]) == len(slots), timeout)
            responded = self._pongs.pop(token)
        return {slot.worker_id: slot.worker_id in responded
                for slot in slots}

    def stats(self) -> PoolStats:
        """A consistent snapshot of pool lifetime counters."""
        with self._lock:
            if self.mode == "inline":
                alive = self.workers if self._running else 0
                fabric = self._fabric_totals
                if self._inline_cache is not None:
                    fabric = FabricCacheStats(
                        hits=fabric.hits, misses=fabric.misses,
                        stores=fabric.stores,
                        evictions=fabric.evictions,
                        entries=self._inline_cache.stats().entries,
                    )
                running = 0
            else:
                alive = sum(1 for s in self._slots if s.alive())
                warm_entries = sum(
                    s.warm_entries_gauge for s in self._slots)
                totals = self._fabric_totals
                fabric = FabricCacheStats(
                    hits=totals.hits, misses=totals.misses,
                    stores=totals.stores, evictions=totals.evictions,
                    entries=warm_entries,
                )
                running = sum(1 for s in self._slots if s.busy)
            # Instantaneous gauges refresh on snapshot (the registry's
            # exposition reflects the latest stats() call).
            self._pending_gauge.set(len(self._pending))
            self._running_gauge.set(running)
            self._alive_gauge.set(alive)
            return PoolStats(
                workers=self.workers,
                alive=alive,
                restarts=self._restarts.value,
                tasks_done=self._tasks_done.value,
                tasks_failed=self._tasks_failed.value,
                tasks_retried=self._tasks_retried.value,
                pending=len(self._pending),
                running=running,
                busy_seconds=self._busy_seconds.value,
                fabric_cache=fabric,
            )

    # -- internals -------------------------------------------------------------

    def _start_worker(self, slot: _WorkerSlot) -> None:
        """(Re)fork one worker into ``slot`` (caller holds the lock).

        Fresh channels every time (a crashed predecessor may have died
        holding its inbox's lock); the worker is the outbox's only writer.
        """
        slot.inbox = self._ctx.Queue()
        slot.outbox, sender = self._ctx.Pipe(duplex=False)
        slot.dispatch_id = None
        slot.warm_entries_gauge = 0
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, slot.inbox, sender, self.warm_entries),
            daemon=True,
            name=f"repro-serve-worker-{slot.worker_id}",
        )
        slot.process.start()
        sender.close()

    def _dispatch_pending(self) -> None:
        """Hand queued tasks to idle live workers (caller holds lock)."""
        for slot in self._slots:
            if not self._pending:
                return
            if slot.busy or not slot.alive():
                continue
            task = self._pending.popleft()
            dispatch_id = uuid.uuid4().hex
            task.attempts += 1
            self._dispatches[dispatch_id] = task
            slot.dispatch_id = dispatch_id
            tracer = active_tracer()
            if tracer is not None:
                task.trace_offset = tracer.now()
            slot.inbox.put(("task", dispatch_id, task.kind,
                            task.payload, tracer is not None))

    def _collect_loop(self) -> None:
        """Collector thread: results, health, restarts, scheduling.

        Blocks until an outbox is readable or a worker exits, so
        results and crashes are seen the moment they happen and an idle
        pool costs nothing.  After shutdown a worker leaves the wait set
        once its outbox closes.
        """
        while True:
            with self._lock:
                if not self._running and not self._dispatches \
                        and not self._pending:
                    return
                outboxes = {s.outbox: s for s in self._slots
                            if s.outbox is not None}
                sentinels = [s.process.sentinel for s in self._slots
                             if self._running or s.outbox is not None]
            if not sentinels:
                return
            for ready in wait([*outboxes, *sentinels]):
                if ready in outboxes:
                    self._drain_outbox(outboxes[ready])
            self._reap_dead()

    def _drain_outbox(self, slot: _WorkerSlot) -> None:
        """Handle ``slot``'s waiting messages; close it at end of stream.

        Never blocks: with no sender but the worker's, a frame it died
        writing ends in EOF instead of waiting for bytes that never come.
        """
        while slot.outbox is not None:
            try:
                if not slot.outbox.poll():
                    return
                message = slot.outbox.recv()
            except (EOFError, OSError, ValueError, pickle.UnpicklingError):
                slot.outbox.close()
                slot.outbox = None
                return
            self._handle_message(message)

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "started":
            _, worker_id, dispatch_id = message
            with self._lock:
                task = self._dispatches.get(dispatch_id)
            if task is not None:
                task.started.set()
        elif kind == "pong":
            _, worker_id, token = message
            with self._lock:
                if token in self._pongs:
                    self._pongs[token].add(worker_id)
                    self._pong_arrived.notify_all()
        elif kind in ("done", "failed"):
            self._on_completion(message)

    def _on_completion(self, message) -> None:
        kind, worker_id, dispatch_id = message[:3]
        with self._lock:
            task = self._dispatches.pop(dispatch_id, None)
            slot = self._slots[worker_id]
            if slot.dispatch_id == dispatch_id:
                slot.dispatch_id = None
            if kind == "done":
                _, _, _, result, busy, delta, spans = message
                self._busy_seconds.inc(busy)
                self._fabric_totals = \
                    self._fabric_totals.merged_with(delta)
                slot.warm_entries_gauge = delta.entries
                tracer = active_tracer()
                if spans and tracer is not None:
                    tracer.adopt(
                        spans,
                        parent_id=(task.trace_parent_id
                                   if task is not None else None),
                        offset_seconds=(task.trace_offset
                                        if task is not None else 0.0),
                    )
                if task is not None and not task.future.done():
                    self._tasks_done.inc()
                    task.future.set_result(result)
            else:
                _, _, _, error, busy = message
                self._busy_seconds.inc(busy)
                if task is not None and not task.future.done():
                    self._tasks_failed.inc()
                    task.future.set_exception(error)
            self._dispatch_pending()

    def _reap_dead(self) -> None:
        """Restart dead workers; retry (or fail) their in-flight tasks."""
        with self._lock:
            if not self._running:
                return
            for slot in self._slots:
                if slot.alive():
                    continue
                # Drain the final messages the worker managed to send
                # before dying: a task whose "done" landed just before
                # the crash completes normally instead of re-running.
                self._drain_outbox(slot)
                task = self._dispatches.pop(slot.dispatch_id, None) \
                    if slot.dispatch_id else None
                slot.dispatch_id = None
                self._restarts.inc()
                self._start_worker(slot)
                if task is None or task.future.done():
                    continue
                if task.attempts >= self.max_attempts:
                    self._tasks_failed.inc()
                    task.future.set_exception(WorkerCrashed(
                        f"task killed {task.attempts} workers "
                        f"(kind={task.kind!r}); giving up",
                        attempts=task.attempts,
                    ))
                else:
                    self._tasks_retried.inc()
                    # Head of the queue: a retried task was admitted
                    # before everything still pending.
                    self._pending.appendleft(task)
            self._dispatch_pending()
