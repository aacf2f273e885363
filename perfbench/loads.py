"""The benchmark workloads, driven through the public ``repro`` API.

Each workload builds its inputs from the workload seed alone, runs timed
phases of operations, and afterwards checks every result against a
serial ``Engine.from_spec(spec).run()`` of the same spec computed
outside the timed phase (the contract workers=N == served == cached
replay == serial).  An ideal run must also pass its own golden check
(``result.ok``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.api import Engine, RunResult, ScenarioSpec
from repro.parallel import ResultCache, SweepRunner, expand_grid
from repro.serving import Service

from perfbench import config


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What the output check and the rates keep of one ``RunResult``.

    Operations keep these instead of their results, so that the memory of
    a run does not grow with the number of operations it completes.
    """

    #: Digest of everything the result computed, provenance (timings)
    #: excluded.
    sha256: str
    ok: bool
    bit_operations: int
    symbols: int

    @classmethod
    def of(cls, result: RunResult) -> Outcome:
        data = result.to_dict()
        del data["provenance"]
        counters = result.cost.counters
        return cls(
            hashlib.sha256(json.dumps(data, sort_keys=True).encode())
            .hexdigest(),
            result.ok, counters.get("bit_operations", 0),
            counters.get("symbols", 0))


@dataclasses.dataclass
class Op:
    """One timed operation: a run, a sweep or a served request."""

    specs: list[ScenarioSpec]
    latency_s: float
    outcomes: list[Outcome] | None = None
    error: str | None = None
    #: Set by :meth:`Workload.verify`.
    ok: bool | None = None
    #: Wall time of the traced inline re-run (fault_sweep, traced only).
    inline_s: float | None = None


@dataclasses.dataclass
class Phase:
    """The operations of one timed phase and the phase's wall time."""

    ops: list[Op]
    wall_s: float
    #: Open-loop generator health and worker-pool counter deltas
    #: (served_mix only).
    loadgen: dict[str, float] | None = None
    pool: dict[str, float] | None = None

    @classmethod
    def merge(cls, parts: list[Phase]) -> Phase:
        """One phase from several: ops joined, times and counts summed,
        the worst generator health kept."""
        merged = cls([op for part in parts for op in part.ops],
                     sum(part.wall_s for part in parts))
        for part in parts:
            if part.loadgen is not None:
                merged.loadgen = {
                    key: max(value, (merged.loadgen or {}).get(key, value))
                    for key, value in part.loadgen.items()}
            if part.pool is not None:
                merged.pool = {
                    key: (value if key == "workers"
                          else value + (merged.pool or {}).get(key, 0))
                    for key, value in part.pool.items()}
        return merged


def seed_stream(seed: int, *key: int) -> Iterator[int]:
    """An endless deterministic stream of run seeds for ``(seed, key)``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    while True:
        yield int(rng.integers(1, 2**31))


def _error_text(exc: Exception) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _closed_loop(seconds: float, next_op) -> Phase:
    """One client: the next operation starts when the last one ends."""
    ops = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        ops.append(next_op())
    return Phase(ops, time.perf_counter() - started)


class Workload:
    """Base of the workloads.

    Subclasses implement :meth:`setup`, :meth:`phase` and
    :meth:`digest_specs`; the base owns the serial references and the
    output check.
    """

    name = ""
    #: Wrappers must be installed before set-up (workers fork there).
    trace_before_setup = False

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        self.seed = seed
        self.tmp_dir = tmp_dir
        self._references: dict[str, Outcome] = {}

    def setup(self, repeat: int) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, traced: bool = False) -> Phase:
        raise NotImplementedError

    def digest_specs(self) -> list[ScenarioSpec]:
        """The fixed, seed-determined specs behind ``model.*``."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def reference(self, spec: ScenarioSpec) -> Outcome:
        """The serial result of ``spec`` (computed once, untimed)."""
        key = spec.canonical_hash()
        if key not in self._references:
            self._references[key] = Outcome.of(Engine.from_spec(spec).run())
        return self._references[key]

    def verify(self, ops: list[Op]) -> None:
        """Set ``op.ok``: no error, ideal runs pass, results == serial."""
        for op in ops:
            op.ok = op.error is None and all(
                (outcome.ok or not spec.nonideality.is_default())
                and outcome.sha256 == self.reference(spec).sha256
                for spec, outcome in zip(op.specs, op.outcomes)
            )

    def model_results(self) -> list[RunResult]:
        """Serial results of :meth:`digest_specs`."""
        return [Engine.from_spec(spec).run() for spec in self.digest_specs()]


class FaultSweep(Workload):
    """Batch sweeps of a fresh model over a fault x variability grid."""

    name = "fault_sweep"

    def _grid(self, seed: int) -> list[ScenarioSpec]:
        base = ScenarioSpec(**config.MLP_SPEC,
                            batch=config.FAULT_SWEEP_BATCH)
        return expand_grid(base, {"seed": [seed],
                                  **config.FAULT_SWEEP_AXES})

    def setup(self, repeat: int) -> None:
        self.runner = SweepRunner(workers=config.WORKERS)
        self.runner.run(self._grid(next(seed_stream(self.seed, 2, repeat))))
        self._seeds = seed_stream(self.seed, 3)

    def _op(self, traced: bool) -> Op:
        specs = self._grid(next(self._seeds))
        started = time.perf_counter()
        try:
            results = self.runner.run(specs)
        except Exception as exc:  # noqa: BLE001 -- counted as a failed op
            return Op(specs, time.perf_counter() - started,
                      error=_error_text(exc))
        op = Op(specs, time.perf_counter() - started,
                outcomes=[Outcome.of(result) for result in results])
        if traced:
            # Pool workers ship no spans home: re-run the identical spec
            # list in-process under the tracer for the per-layer view.
            started = time.perf_counter()
            SweepRunner(workers=config.WORKERS, pool="inline").run(specs)
            op.inline_s = time.perf_counter() - started
        return op

    def phase(self, seconds: float, traced: bool = False) -> Phase:
        return _closed_loop(seconds, lambda: self._op(traced))

    def digest_specs(self) -> list[ScenarioSpec]:
        seeds = seed_stream(self.seed, 3)
        return [spec for _ in range(config.DIGEST_OPS[self.name])
                for spec in self._grid(next(seeds))]


class _Schedule:
    """The served_mix request stream: arrival instants and a spec mix."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(6,)))
        self._times_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(9,)))
        self._fresh = seed_stream(seed, 7)
        self.mlp_seeds = [next(self._fresh)
                          for _ in range(config.SERVED_MLP_SEEDS)]
        combos = [(s, b) for s in self.mlp_seeds
                  for b in config.SERVED_MLP_BATCHES]
        self._combos = [combos[i]
                        for i in self._rng.permutation(len(combos))]
        self._deck: list[str] = []
        self._sent: list[ScenarioSpec] = []

    def arrivals(self, seconds: float) -> list[float]:
        """Sorted send offsets of the next ``seconds`` of traffic."""
        count = max(1, round(config.SERVED_RATE * seconds))
        return sorted(self._times_rng.uniform(0.0, seconds, count))

    def _mlp(self) -> ScenarioSpec:
        if self._combos:
            seed, batch = self._combos.pop()
        else:
            seed, batch = next(self._fresh), config.SERVED_MLP_FRESH_BATCH
        return ScenarioSpec(**config.MLP_SPEC, batch=batch, seed=seed)

    def next(self) -> ScenarioSpec:
        """The next request's spec."""
        if not self._deck:
            self._deck = list(config.SERVED_BLOCK)
            self._rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind == "repeat" and self._sent:
            spec = self._sent[int(self._rng.integers(len(self._sent)))]
        elif kind in ("repeat", "mlp"):
            spec = self._mlp()
        elif kind == "mvp":
            spec = ScenarioSpec(**config.SERVED_MVP, seed=next(self._fresh))
        else:
            spec = ScenarioSpec(**config.SERVED_AP, seed=next(self._fresh))
        self._sent.append(spec)
        return spec


class ServedMix(Workload):
    """Open loop of Poisson arrivals into a warm ``Service``."""

    name = "served_mix"
    trace_before_setup = True

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        super().__init__(seed, tmp_dir)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: Service | None = None
        self._cache_dir: str | None = None
        self._schedule = _Schedule(seed)

    def setup(self, repeat: int) -> None:
        # A fresh loop per set-up: the previous loop's executor threads
        # are joined before the next pool forks its workers.
        self.close()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start(repeat))

    async def _start(self, repeat: int) -> None:
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self._cache_dir = tempfile.mkdtemp(prefix="served-",
                                           dir=self.tmp_dir)
        self.service = Service(workers=config.WORKERS,
                               cache=ResultCache(self._cache_dir))
        self.service.start()
        warm_seeds = seed_stream(self.seed, 8, repeat)
        warm = [ScenarioSpec(**config.MLP_SPEC, batch=1, seed=seed)
                for seed in self._schedule.mlp_seeds]
        warm += [ScenarioSpec(**shape, seed=next(warm_seeds))
                 for shape in (config.SERVED_MVP, config.SERVED_AP)]
        await asyncio.gather(*(self.service.submit(s) for s in warm))

    def phase(self, seconds: float, traced: bool = False) -> Phase:
        arrivals = [(offset, self._schedule.next())
                     for offset in self._schedule.arrivals(seconds)]
        return self.loop.run_until_complete(self._phase(arrivals))

    async def _phase(self, arrivals) -> Phase:
        ops: list[Op | None] = [None] * len(arrivals)
        settled = 0

        async def request(index: int, due: float, spec) -> None:
            nonlocal settled
            try:
                result = await self.service.submit(spec)
            except Exception as exc:  # noqa: BLE001 -- a failed request
                ops[index] = Op([spec], time.perf_counter() - due,
                                error=_error_text(exc))
            else:
                ops[index] = Op([spec], time.perf_counter() - due,
                                outcomes=[Outcome.of(result)])
            settled += 1

        loop = asyncio.get_running_loop()
        tasks = []
        late = []
        backlog = []
        before = self.service.stats().pool
        started = time.perf_counter()
        for index, (offset, spec) in enumerate(arrivals):
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            backlog.append(len(tasks) - settled)
            tasks.append(loop.create_task(request(index, due, spec)))
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - started
        after = self.service.stats().pool
        pool = {
            "workers": after.workers,
            "busy_s": after.busy_seconds - before.busy_seconds,
            "restarts": after.restarts - before.restarts,
            "fabric_hits": (after.fabric_cache.hits
                            - before.fabric_cache.hits),
            "fabric_misses": (after.fabric_cache.misses
                              - before.fabric_cache.misses),
        }
        third = max(1, len(backlog) // 3)
        loadgen = {
            "late_p90_ms": 1e3 * float(np.percentile(late, 90)),
            "backlog_max": float(max(backlog)),
            "backlog_growth": float(np.mean(backlog[-third:])
                                    - np.mean(backlog[:third])),
        }
        return Phase(ops, wall, loadgen, pool)

    def digest_specs(self) -> list[ScenarioSpec]:
        schedule = _Schedule(self.seed)
        return [schedule.next() for _ in range(config.DIGEST_OPS[self.name])]

    def close(self) -> None:
        if self.loop is None:
            return
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None
            try:
                self.tmp_dir.rmdir()
            except OSError:
                pass  # not empty: another run's cache is still there


WORKLOADS = {w.name: w for w in (FaultSweep, ServedMix)}
