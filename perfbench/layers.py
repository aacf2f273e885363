"""Per-layer view of a traced phase.

The traced phase activates the ``repro.obs`` tracer, which records the
program's own stage spans (``engine.run``, ``spec.resolve``,
``fabric.build``, ``window.execute``, ``fidelity.probe``, ``mvm.*``,
``serve.*``).  On top of those, :class:`EntryPoints` wraps the public
entry point of each layer in a ``bench.*`` span.  A wrapper is installed
where its caller looks the name up (``train_mlp`` in
``repro.api.workloads``, ``build_crossbar`` in ``repro.mvm.mapper``, a
method on its class), so a caller that stops using that binding shows
up as a wrapper with zero calls.  Spans recorded inside serving workers
travel home with their results and are counted too.

A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import collections
import importlib
from typing import Any, Callable, Iterable, Sequence

from repro.obs.trace import SpanRecord, active_tracer, span

ANALOG = frozenset({"fault_sweep", "served_mix"})
DIGITAL = frozenset({"served_mix"})
#: The workload generators bound in ``repro.api.workloads`` (adapter data
#: plus ``train_mlp``), with the workloads on which each must be called.
GENERATE = {
    "train_mlp": frozenset({"fault_sweep"}),
    "sample_blobs": ANALOG,
    "blob_means": ANALOG,
    "random_table": DIGITAL,
    "random_query": DIGITAL,
    "make_motif_dataset": DIGITAL,
}


def _len(_args, result) -> int:
    return len(result)


def _hit(_args, result) -> int:
    return int(result is not None)


def _group_size(args, _result) -> int:
    return len(args[1])


#: (target, workloads on which it must be called, value recorded per
#: call or None).  A target is ``module:name`` or ``module:Class.method``.
ENTRY_POINTS: tuple[tuple[str, frozenset[str], Callable | None], ...] = (
    *((f"repro.api.workloads:{name}", expected, None)
      for name, expected in GENERATE.items()),
    ("repro.api.engines:AnalogAccelerator", frozenset({"fault_sweep"}),
     None),
    ("repro.api.engines:AnalogMVMEngine.build_fabric", ANALOG, _len),
    ("repro.mvm.analog:AnalogAccelerator.matvec_batch", frozenset(), None),
    ("repro.mvm.analog:AnalogAcceleratorGroup.matvec_batch", ANALOG, None),
    ("repro.mvm.analog:AnalogAccelerator.reference_matvec_batch",
     frozenset(), None),
    ("repro.mvm.analog:AnalogAcceleratorGroup.reference_matvec_batch",
     ANALOG, None),
    ("repro.mvm.mapper:build_crossbar", frozenset({"fault_sweep"}), None),
    ("repro.api.engines:probe_read_fidelity", frozenset({"fault_sweep"}),
     None),
    ("repro.mvp.batch:BatchedMVPProcessor.execute", DIGITAL, None),
    ("repro.rram_ap.processor:AutomataProcessor.run_batch", DIGITAL, None),
    ("repro.parallel.cache:ResultCache.load", frozenset({"served_mix"}),
     _hit),
    ("repro.parallel.cache:ResultCache.store", frozenset({"served_mix"}),
     None),
    ("repro.serving.pool:WorkerPool.run_group", frozenset({"served_mix"}),
     _group_size),
    ("repro.parallel.sweep:SweepRunner.run", frozenset({"fault_sweep"}),
     None),
)


def span_name(target: str) -> str:
    return "bench." + target.split(":")[1]


def _wrap(fn: Callable, name: str, value: Callable | None) -> Callable:
    def wrapper(*args, **kwargs):
        with span(name):
            result = fn(*args, **kwargs)
            tracer = active_tracer()
            if value is not None and tracer is not None:
                # A zero-length child carries the per-call value home,
                # also from a serving worker.
                tracer.record_span(
                    name + "#value", tracer.now(), 0.0,
                    parent_id=tracer.current_span_id,
                    value=value(args, result))
        return result
    wrapper.__name__ = fn.__name__
    wrapper.__wrapped__ = fn
    return wrapper


class EntryPoints:
    """Installs and removes the ``bench.*`` wrappers."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for target, _, value in ENTRY_POINTS:
            module_name, path = target.split(":")
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except AttributeError:
                raise LookupError(
                    f"entry point {target} does not exist") from None
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, span_name(target), value))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def missing_calls(calls: dict[str, int], workload: str) -> list[str]:
    """Entry points the workload must call but did not."""
    return [target for target, expected, _ in ENTRY_POINTS
            if workload in expected and calls[target] == 0]


class SpanIndex:
    """Name, ancestry and self-time queries over one trace."""

    def __init__(self, records: Sequence[SpanRecord]) -> None:
        self._by_id = {rec.span_id: rec for rec in records}
        self._child_seconds: dict[int, float] = collections.defaultdict(
            float)
        self._by_name: dict[str, list[SpanRecord]] = \
            collections.defaultdict(list)
        for rec in records:
            self._by_name[rec.name].append(rec)
            if rec.parent_id in self._by_id:
                self._child_seconds[rec.parent_id] += rec.duration_seconds

    def _ancestors(self, rec: SpanRecord) -> Iterable[SpanRecord]:
        while rec.parent_id in self._by_id:
            rec = self._by_id[rec.parent_id]
            yield rec

    def named(self, *names: str) -> list[SpanRecord]:
        return [rec for name in names for rec in self._by_name[name]]

    def count(self, name: str) -> int:
        return len(self._by_name[name])

    def total(self, *names: str) -> float:
        """Seconds covered by ``names``, nested repeats counted once."""
        return sum(
            rec.duration_seconds for rec in self.named(*names)
            if not any(a.name in names for a in self._ancestors(rec)))

    def self_time(self, *names: str) -> float:
        return sum(max(0.0, rec.duration_seconds
                       - self._child_seconds[rec.span_id])
                   for rec in self.named(*names))

    def under_engine(self, name: str, engine: str) -> float:
        """Seconds of ``name`` spans inside an ``engine.run`` of ``engine``."""
        return sum(
            rec.duration_seconds for rec in self.named(name)
            if any(a.name == "engine.run" and a.attrs.get("engine") == engine
                   for a in self._ancestors(rec)))

    def values(self, name: str) -> list[float]:
        return [rec.attrs["value"] for rec in self.named(name + "#value")]


def per_layer(index: SpanIndex, ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics, times in ms per operation."""
    per_op = 1e3 / ops

    def bench(*targets: str) -> float:
        return per_op * index.total(*(f"bench.{t}" for t in targets))

    accelerators = sum(index.values("bench.AnalogMVMEngine.build_fabric"))
    mapped = index.count("bench.AnalogAccelerator")
    loads = index.values("bench.ResultCache.load")
    groups = index.values("bench.WorkerPool.run_group")
    requests = index.named("serve.request")
    outcomes = collections.Counter(r.attrs.get("outcome") for r in requests)
    metrics = {
        "api.resolve_ms": per_op * index.total("spec.resolve"),
        "api.engine_self_ms": per_op * index.self_time("engine.run"),
        "workloads.generate_ms": bench(*GENERATE),
        "mvm.map_ms": bench("AnalogAccelerator"),
        "mvm.twin_ratio": (1.0 - mapped / accelerators
                           if accelerators else 0.0),
        "mvm.kernel_ms": bench("AnalogAccelerator.matvec_batch",
                               "AnalogAcceleratorGroup.matvec_batch"),
        "mvm.reference_ms": bench(
            "AnalogAccelerator.reference_matvec_batch",
            "AnalogAcceleratorGroup.reference_matvec_batch"),
        "crossbar.build_ms": bench("build_crossbar"),
        "crossbar.probe_ms": bench("probe_read_fidelity"),
        "mvp.execute_ms": bench("BatchedMVPProcessor.execute"),
        "mvp.fabric_ms": per_op * index.under_engine("fabric.build",
                                                     "mvp_batched"),
        "rram_ap.run_batch_ms": bench("AutomataProcessor.run_batch"),
        "rram_ap.build_ms": per_op * index.under_engine("fabric.build",
                                                       "rram_ap"),
        "parallel.cache_load_ms": bench("ResultCache.load"),
        "parallel.cache_store_ms": bench("ResultCache.store"),
        "parallel.cache_hit_ratio": (sum(loads) / len(loads)
                                     if loads else 0.0),
        "serving.coalesce_ms": per_op * index.total("serve.coalesce"),
        "serving.service_ms": per_op * index.total("serve.service"),
        "serving.dispatch_ms": bench("WorkerPool.run_group"),
        "serving.group_size_mean": (sum(groups) / len(groups)
                                    if groups else 0.0),
        "serving.dedup_ratio": (outcomes["deduped"] / len(requests)
                                if requests else 0.0),
        "serving.rejected": float(outcomes["rejected"]),
    }
    for stage in ("dac", "accumulate", "adc", "shift_add", "ledger"):
        metrics[f"mvm.{stage}_ms"] = per_op * index.self_time(f"mvm.{stage}")
    return metrics


def call_counts(index: SpanIndex) -> dict[str, int]:
    return {target: index.count(span_name(target))
            for target, _, _ in ENTRY_POINTS}
