"""WorkerPool basics: execution modes, equivalence, health, stats.

The robustness suite (crashes, retries, overload) lives in
``test_pool_robustness.py``; the coalescer determinism suite in
``test_coalesce_determinism.py``.  This file pins the everyday
contract: every pool mode computes exactly what the plain engine
facade computes, lifecycle is safe, and the counters add up.
"""

import multiprocessing
import os
import statistics
import struct
import threading
import time

import pytest

from repro.api import Engine, ScenarioSpec
from repro.serving import ServingError, WorkerPool
from repro.serving import pool as pool_module

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=5, seed=3)
QUICK = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                     items=2, batch=4, seed=3)
ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel"):
        data["provenance"].pop(key, None)
    return data


@pytest.fixture(scope="module")
def serial():
    return Engine.from_spec(SPEC).run()


@pytest.mark.parametrize("mode", ["inline", "fork"])
def test_run_matches_plain_engine(mode, serial):
    with WorkerPool(workers=2, mode=mode) as pool:
        result = pool.run(SPEC)
    assert comparable(result) == comparable(serial)
    assert result.cost == serial.cost
    assert result.item_costs == serial.item_costs


def test_sharded_run_records_pool_provenance():
    with WorkerPool(workers=2, mode="fork") as pool:
        result = pool.run(SPEC)
    parallel = result.provenance["parallel"]
    assert parallel["workers"] == 2
    assert parallel["pool"] == "warm-fork"
    assert [s["offset"] for s in parallel["shards"]] == [0, 3]


def test_run_many_preserves_order(serial):
    other = SPEC.replaced(seed=4)
    other_serial = Engine.from_spec(other).run()
    with WorkerPool(workers=2, mode="fork") as pool:
        results = pool.run_many([SPEC, other, SPEC])
    assert comparable(results[0]) == comparable(serial)
    assert comparable(results[1]) == comparable(other_serial)
    assert comparable(results[2]) == comparable(serial)


def test_run_group_matches_serial_runs(serial):
    with WorkerPool(workers=1, mode="fork") as pool:
        results = pool.run_group([SPEC, SPEC.replaced(seed=4)])
    assert comparable(results[0]) == comparable(serial)
    assert comparable(results[1]) == comparable(
        Engine.from_spec(SPEC.replaced(seed=4)).run())


def test_warm_fabric_reused_across_group_members():
    with WorkerPool(workers=1, mode="fork") as pool:
        results = pool.run_group([ANALOG, ANALOG.replaced(batch=3)])
        stats = pool.stats()
    assert all(r.ok for r in results)
    # Same structure hash (batch excluded): the second member reuses
    # the first member's mapped fabric template.
    assert stats.fabric_cache.hits >= 1
    assert stats.fabric_cache.stores >= 1


def test_ping_reaches_every_worker():
    with WorkerPool(workers=2, mode="fork") as pool:
        assert pool.ping(timeout=10.0) == {0: True, 1: True}


def test_outbox_drain_ends_on_a_truncated_frame():
    # A worker killed mid-send leaves a length header promising more
    # body than it wrote; with no other sender alive the drain must
    # read that as end of stream instead of blocking for the rest.
    receiver, sender = multiprocessing.Pipe(duplex=False)
    sender.send(("pong", 0, "token"))
    os.write(sender.fileno(), struct.pack("!i", 1000) + b"x" * 10)
    sender.close()
    pool = WorkerPool(workers=1, mode="fork")
    pool._pongs["token"] = set()
    slot = pool_module._WorkerSlot(0)
    slot.outbox = receiver
    errors = []

    def drain():
        try:
            pool._drain_outbox(slot)
        except BaseException as exc:  # noqa: BLE001 -- asserted below
            errors.append(exc)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "drain blocked on a truncated frame"
    assert errors == []
    assert pool._pongs["token"] == {0}  # the whole frame was delivered
    assert slot.outbox is None and receiver.closed


def test_dispatch_overhead_is_small():
    # Wall time minus worker busy time per sequential round trip: the
    # collector must read a result when it lands, not on a poll tick.
    overheads = []
    with WorkerPool(workers=2, mode="fork") as pool:
        for _ in range(20):
            busy = pool.stats().busy_seconds
            started = time.perf_counter()
            pool.submit("spec", QUICK).result(timeout=60.0)
            wall = time.perf_counter() - started
            overheads.append(wall - (pool.stats().busy_seconds - busy))
    assert statistics.median(overheads) < 0.020


def test_stats_counts_tasks():
    with WorkerPool(workers=2, mode="inline") as pool:
        pool.run_many([SPEC, SPEC.replaced(seed=5)])
        stats = pool.stats()
    assert stats.tasks_done == 2
    assert stats.tasks_failed == 0
    assert stats.restarts == 0
    assert stats.busy_seconds > 0


def test_task_error_propagates_and_is_counted():
    bad = SPEC.replaced(params={"no_such_knob": 1})
    with WorkerPool(workers=1, mode="fork") as pool:
        with pytest.raises(ValueError, match="no_such_knob"):
            pool.run(bad)
        # The worker survives its task's exception.
        assert pool.run(SPEC).ok
        stats = pool.stats()
    assert stats.tasks_failed == 1
    assert stats.tasks_done == 1
    assert stats.restarts == 0


def test_submit_after_shutdown_raises():
    pool = WorkerPool(workers=1, mode="inline").start()
    pool.shutdown()
    with pytest.raises(ServingError, match="not running"):
        pool.submit("spec", SPEC)


def test_shutdown_is_idempotent():
    pool = WorkerPool(workers=1, mode="inline").start()
    pool.shutdown()
    pool.shutdown()
    assert pool.stats().alive == 0


def test_constructor_validation():
    with pytest.raises(ValueError, match="workers"):
        WorkerPool(workers=0)
    with pytest.raises(ValueError, match="mode"):
        WorkerPool(mode="threads")
    with pytest.raises(ValueError, match="max_attempts"):
        WorkerPool(max_attempts=0)
    with WorkerPool(workers=1, mode="inline") as pool:
        with pytest.raises(ValueError, match="task kind"):
            pool.submit("mystery", SPEC)
