"""The pool a ParallelRunner call starts for itself.

Without an attached executor each call runs on a
:class:`~repro.serving.pool.WorkerPool` that lives for that call only:
its provenance names the start method, not a warm pool, and a one-worker
(inline) call runs on the process's active fabric cache instead of
swapping in one of its own.
"""

import pytest

from repro.api import ScenarioSpec
from repro.api.fabric_cache import (
    activate_fabric_cache,
    active_fabric_cache,
    deactivate_fabric_cache,
)
from repro.parallel import ParallelRunner

SHARDABLE = ScenarioSpec(engine="mvp_batched", workload="database",
                         size=96, items=2, batch=4, seed=3)
ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)


@pytest.fixture(autouse=True)
def cold_after_each_test():
    yield
    deactivate_fabric_cache()


@pytest.mark.parametrize("pool", ["fork", "inline"])
def test_sharded_run_records_the_start_method(pool):
    result = ParallelRunner(workers=2, pool=pool).run(SHARDABLE)
    parallel = result.provenance["parallel"]
    assert parallel["pool"] == pool
    assert parallel["workers"] == 2
    assert len(parallel["shards"]) == 2


def test_inline_call_uses_the_active_fabric_cache():
    cache = activate_fabric_cache()
    runner = ParallelRunner(workers=1)
    runner.run(ANALOG)
    runner.run(ANALOG.replaced(batch=3))
    assert active_fabric_cache() is cache
    stats = cache.stats()
    assert stats.stores == 1
    assert stats.hits >= 1


def test_inline_call_leaves_no_cache_active():
    ParallelRunner(workers=1).run(ANALOG)
    assert active_fabric_cache() is None
