"""ParallelRunner survives worker crashes: retry, or a typed failure.

The runner executes on :class:`~repro.serving.pool.WorkerPool`, so it
inherits the pool's failure contract: a worker that dies mid-task is
restarted and the task retried bit-identically, and a task that kills
every worker it lands on raises
:class:`~repro.serving.errors.WorkerCrashed` instead of hanging.  Each
call runs under an alarm so that a hang fails the test.
"""

import os
import signal

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import ParallelRunner
from repro.serving import WorkerCrashed
from repro.serving import pool as pool_module

SPECS = [ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                      items=2, batch=4, seed=seed) for seed in (3, 4, 5)]

#: Seed marking a spec that kills every worker it runs on.
BOMB_SEED = 666

#: Seconds a call may take before the test fails as hung.
DEADLINE = 120


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


@pytest.fixture
def deadline():
    """Raise in the test if it outlives :data:`DEADLINE`."""
    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {DEADLINE} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_crashed_first_attempt_is_retried_identically(
        monkeypatch, tmp_path, deadline):
    real = pool_module._execute_task
    marker = tmp_path / "crashed"

    def crash_once(kind, payload):
        # The first worker to take a task dies; the marker file is
        # visible to the restarted worker, which runs normally.
        if not marker.exists():
            marker.touch()
            os._exit(13)
        return real(kind, payload)

    # Forked workers inherit the patched module.
    monkeypatch.setattr(pool_module, "_execute_task", crash_once)
    results = ParallelRunner(workers=2, pool="fork").run_many(SPECS)
    assert marker.exists()
    serial = [Engine.from_spec(spec).run() for spec in SPECS]
    assert [comparable(r) for r in results] \
        == [comparable(r) for r in serial]
    assert [r.cost for r in results] == [r.cost for r in serial]


def test_spec_crashing_every_attempt_raises_worker_crashed(
        monkeypatch, deadline):
    real = pool_module._execute_task

    def bomb(kind, payload):
        if payload.seed == BOMB_SEED:
            os._exit(13)
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", bomb)
    runner = ParallelRunner(workers=2, pool="fork")
    with pytest.raises(WorkerCrashed):
        runner.run_many([SPECS[0], SPECS[1].replaced(seed=BOMB_SEED)])
