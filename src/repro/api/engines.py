"""The engine facade: ``Engine.from_spec(spec).run() -> RunResult``.

Five registered engines cover the paper's CIM architectures plus the
batched execution layer:

* ``mvp``          -- single-item Memristive Vector Processor;
* ``mvp_batched``  -- the PR-1 batch engine: one program over B logical
  crossbars of a :class:`~repro.crossbar.array.CrossbarStack`;
* ``rram_ap``      -- the hardware automata processor (RRAM kernel by
  default; ``params["kernel"] in {"rram", "sram", "sdram"}`` swaps the
  priced dot-product kernel);
* ``arch_model``   -- the analytical CPU+MVP vs multicore comparison of
  Fig. 4;
* ``analog_mvm``   -- the tiled analog matrix-vector-multiply
  accelerator (:mod:`repro.mvm`): differential-pair crossbar tiles,
  bit-serial DAC slicing, ADC quantization, and per-run
  :class:`~repro.mvm.accuracy.AccuracySummary` reporting.

Every engine consumes the same :class:`~repro.api.spec.ScenarioSpec`,
resolves its device and workload through the registries, and returns
the same :class:`~repro.api.result.RunResult` schema -- outputs, SI
cost totals, per-item costs for batched runs, and provenance.  The
engines delegate to the existing simulators (``MVPProcessor``,
``BatchedMVPProcessor``, ``AutomataProcessor``, ``run_fig4_sweep``),
which remain public: the facade is a front-end, not a fork, and the
shim tests assert both surfaces produce identical results.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Mapping

import numpy as np

import repro
from repro.api.devices import energy_model_for
from repro.api.fabric_cache import active_fabric_cache
from repro.api.registry import ENGINES, RegistryError
from repro.api.result import (
    CostSummary,
    FidelitySummary,
    RunResult,
    cost_from_mvp_stats,
    cost_from_run_cost,
    cost_from_system_point,
)
from repro.api.spec import ScenarioSpec
from repro.api.workloads import ScenarioError, WorkloadAdapter, adapter_for
from repro.arch.cache import MissRates
from repro.arch.mvp_model import MVPSystemModel
from repro.arch.sweep import run_fig4_sweep
from repro.crossbar import Crossbar, CrossbarStack
from repro.crossbar.nonideal import (
    AXIS_FAULTS,
    AXIS_IR_DROP,
    AXIS_VARIABILITY,
    AXIS_WRITE_VERIFY,
    NonidealCrossbar,
    NonidealCrossbarStack,
    probe_read_fidelity,
)
from repro.mvm.accuracy import AccuracySummary
from repro.mvm.analog import AnalogAccelerator
from repro.obs.trace import active_tracer, span
from repro.mvm.mapper import CONFIG_PARAM_KEYS, MVMConfig
from repro.mvp.batch import BatchedMVPProcessor
from repro.mvp.processor import MVPProcessor
from repro.rram_ap.cost import RRAM_KERNEL, SDRAM_KERNEL, SRAM_KERNEL
from repro.rram_ap.processor import AutomataProcessor
from repro.rram_ap.ste_array import STEArray, inject_ste_faults

__all__ = ["Engine", "run", "run_provenance"]

_KERNELS = {
    "rram": RRAM_KERNEL,
    "sram": SRAM_KERNEL,
    "sdram": SDRAM_KERNEL,
}

#: The reference device non-device-sensitive engines require.
_DEFAULT_DEVICE = "bipolar"

#: Spawn-key axes of ``spec.seed`` reserved for fabric entropy (the
#: workload adapters own axes 0 and 1; see repro.api.workloads): axis 2
#: feeds per-item fabric streams (faults/variability of batch item i),
#: axis 3 the batch-wide shared fabric stream (the AP's one-time chip
#: configuration).  Keying per-item streams by *absolute* batch index
#: is what keeps sharded nonideal runs bit-identical to workers=1.
_FABRIC_ITEM_AXIS = 2
_FABRIC_SHARED_AXIS = 3


def run_provenance(
    spec: ScenarioSpec,
    engine: str,
    wall_seconds: float,
    parallel: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """What produced a result: the provenance every run records.

    Shared by :meth:`Engine.run` and the sharded merge
    (:func:`~repro.parallel.runner.merge_shard_results`).

    Args:
        spec: the scenario that ran.
        engine: the engine's registry name.
        wall_seconds: the run's wall time (the whole sharded run's, for
            a merge).
        parallel: the executor's scheduling record of a sharded run
            (worker count, pool flavour, per-shard wall times); stored
            under ``"parallel"``.
    """
    provenance: dict[str, Any] = {
        "engine": engine,
        "workload": spec.workload,
        "device": spec.device.name,
        "seed": spec.seed,
        "repro_version": repro.__version__,
        "wall_seconds": wall_seconds,
    }
    if parallel is not None:
        provenance["parallel"] = dict(parallel)
    if not spec.device.is_plain:
        provenance["device_overrides"] = dict(spec.device.overrides)
    tracer = active_tracer()
    if tracer is not None:
        # Trace linkage: enough to find this run's spans in the
        # exported trace.  Scheduling provenance like wall_seconds --
        # excluded from determinism comparisons, moved under
        # cache["producer"] on replay.  The run ended just now, so it
        # started wall_seconds ago.
        provenance["trace"] = {
            "trace_id": tracer.trace_id,
            "started_at": tracer.wall_now() - wall_seconds,
            "duration_seconds": wall_seconds,
        }
    return provenance


class Engine:
    """One execution engine bound to a scenario.

    Subclasses implement :meth:`_execute`; this base class owns spec
    resolution, registry dispatch, provenance and timing, so
    ``Engine.from_spec(spec).run()`` behaves identically across all
    engines.

    Args:
        spec: the scenario to run.  ``spec.engine`` must name this
            engine.
    """

    #: Registry name (set by subclasses).
    name = ""
    #: One-line summary shown by ``repro list engines``.
    description = ""
    #: Whether the engine services batch > 1 specs.
    supports_batch = False
    #: Whether the engine can execute a batch *window* in isolation
    #: (``execute_window`` + ``aggregate_cost``), which is what lets
    #: :class:`repro.parallel.ParallelRunner` split a run into
    #: per-worker shards and merge them bit-identically.
    shardable = False
    #: Whether the engine's results depend on ``spec.device``.  Engines
    #: that ignore the device axis reject non-default devices rather
    #: than stamping misleading provenance.
    uses_device = False
    #: Nonideality axes this engine's fabric can realize; specs
    #: activating any other axis are rejected rather than silently run
    #: on ideal hardware.
    nonideality_axes: frozenset[str] = frozenset()
    #: ``spec.params`` keys the engine itself reads (the workload
    #: adapter declares its own via ``surface_params``).
    engine_params: frozenset[str] = frozenset()

    def __init__(self, spec: ScenarioSpec) -> None:
        if spec.engine != self.name:
            raise ScenarioError(
                f"spec names engine {spec.engine!r} but was handed to "
                f"{self.name!r}"
            )
        if not self.supports_batch and spec.batch != 1:
            raise ScenarioError(
                f"engine {self.name!r} is single-item; use batch=1 "
                f"(got {spec.batch})"
            )
        # Validate registry names first: an unknown device should get
        # the discovery-oriented UnknownNameError, not the ignored-axis
        # message below.
        spec.validate_names()
        if not self.uses_device and (
                spec.device.name != _DEFAULT_DEVICE
                or not spec.device.is_plain):
            raise ScenarioError(
                f"engine {self.name!r} does not model the device axis; "
                f"device {spec.device.name!r} "
                f"{'with overrides ' if not spec.device.is_plain else ''}"
                f"would not change its results "
                f"(use the default {_DEFAULT_DEVICE!r}"
                + (", or params['kernel'] for AP kernel pricing)"
                   if self.name == "rram_ap" else ")")
            )
        unsupported = sorted(
            spec.nonideality.active_axes() - self.nonideality_axes)
        if unsupported:
            supported = sorted(self.nonideality_axes) or "<none>"
            raise ScenarioError(
                f"engine {self.name!r} cannot realize nonideality "
                f"axes {unsupported} (supported: {supported})"
            )
        self.spec = spec
        #: Fidelity measured by the most recent window execution; None
        #: until a nonideal window ran (see :meth:`window_fidelity`).
        self._fidelity: FidelitySummary | None = None
        #: Application accuracy of the most recent window execution;
        #: None for engines without an accuracy axis (see
        #: :meth:`window_accuracy`).
        self._accuracy: AccuracySummary | None = None

    @classmethod
    def from_spec(
        cls, spec: ScenarioSpec | Mapping[str, Any]
    ) -> "Engine":
        """Resolve ``spec.engine`` in the registry and bind the spec.

        Accepts a :class:`ScenarioSpec` or a plain config dict.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        engine_cls = ENGINES.get(spec.engine)
        if not (isinstance(engine_cls, type)
                and issubclass(engine_cls, Engine)):
            raise RegistryError(
                f"engine {spec.engine!r} is registered as "
                f"{type(engine_cls).__name__}, not an Engine subclass"
            )
        return engine_cls(spec)

    def run(self, spec: ScenarioSpec | None = None) -> RunResult:
        """Execute the scenario and return the unified result.

        Args:
            spec: optional override; any spec other than the bound one
                is re-dispatched through the registry (results are pure
                functions of the spec, so re-dispatch is always safe).
        """
        if spec is not None and spec is not self.spec:
            return Engine.from_spec(spec).run()
        with span("engine.run", engine=self.name,
                  workload=self.spec.workload, seed=self.spec.seed):
            with span("spec.resolve"):
                adapter = adapter_for(self.spec, self.name)
                self.check_params(adapter)
            started = time.perf_counter()
            outputs, cost, item_costs = self._execute(adapter)
            elapsed = time.perf_counter() - started
        return RunResult(
            spec=self.spec,
            outputs=outputs,
            cost=cost,
            item_costs=tuple(item_costs),
            provenance=run_provenance(self.spec, self.name, elapsed),
            fidelity=self.window_fidelity(),
            accuracy=self.window_accuracy(),
        )

    def check_params(self, adapter: WorkloadAdapter) -> None:
        """Reject ``spec.params`` keys no surface of this run reads."""
        allowed = adapter.surface_params(self.name) | self.engine_params
        unknown = set(self.spec.params) - allowed
        if unknown:
            raise ScenarioError(
                f"unknown params {sorted(unknown)} for engine "
                f"{self.name!r} + workload {self.spec.workload!r}; "
                f"recognized: {sorted(allowed) or '<none>'}"
            )

    def _execute(
        self, adapter: WorkloadAdapter
    ) -> tuple[dict[str, Any], CostSummary, list[CostSummary]]:
        """Run the adapter's window and summarize the whole-run cost.

        Shardable engines implement :meth:`execute_window` +
        :meth:`aggregate_cost` and inherit this; single-item engines
        override ``_execute`` directly.
        """
        if not self.shardable:
            raise NotImplementedError
        outputs, base, item_costs = self.execute_window(adapter)
        return outputs, self.aggregate_cost(base, item_costs), item_costs

    # -- fabric construction (spec v2) -------------------------------------------

    def build_fabric(self, adapter: WorkloadAdapter):
        """Construct the compute fabric for this spec's window.

        The single spec-v2 hook every engine routes hardware
        construction through: the resolved
        :class:`~repro.api.spec.DeviceSpec` parameters pick the
        resistance window, and an active
        :class:`~repro.crossbar.nonideal.NonidealitySpec` swaps the
        ideal :class:`~repro.crossbar.Crossbar` /
        :class:`~repro.crossbar.CrossbarStack` for their nonideal
        counterparts, seeded per absolute batch item so sharded
        execution stays bit-identical.  Engines without a crossbar
        fabric (the analytical model; the AP, whose nonidealities act
        on the STE configuration instead) return None.
        """
        return None

    def _crossbar_fabric(self, adapter: WorkloadAdapter):
        """Shared :meth:`build_fabric` body for the MVP engines."""
        rows, cols = adapter.mvp_geometry()
        params = self.spec.device.resolve_parameters()
        nonideality = self.spec.nonideality
        if nonideality.is_default():
            if self.supports_batch:
                return CrossbarStack(adapter.window_batch, rows, cols,
                                     params=params)
            return Crossbar(rows, cols, params=params)
        rngs = [self._fabric_item_rng(index)
                for index in adapter.batch_indices]
        if self.supports_batch:
            return NonidealCrossbarStack(rows, cols, params=params,
                                         nonideality=nonideality,
                                         rngs=rngs)
        return NonidealCrossbar(rows, cols, params=params,
                                nonideality=nonideality, rng=rngs[0])

    def warm_fabric_key(self) -> str | None:
        """The warm-fabric cache key this spec's fabric may reuse.

        None (the default) means the engine's fabric is never reusable
        across runs -- either construction is stochastic, or execution
        mutates it.  Engines whose ideal fabric is a deterministic
        read-only mapping (the analog MVM accelerator) return a key
        built on :meth:`~repro.api.spec.ScenarioSpec.structure_hash`,
        and a process that activated a
        :class:`~repro.api.fabric_cache.FabricCache` (a warm serving
        worker) then reuses the mapped hardware across runs.
        """
        return None

    def _fabric_item_rng(self, index: int) -> np.random.Generator:
        """Entropy stream of batch item ``index``'s fabric."""
        return np.random.default_rng(np.random.SeedSequence(
            self.spec.seed, spawn_key=(_FABRIC_ITEM_AXIS, index)))

    def _fabric_shared_rng(self) -> np.random.Generator:
        """Entropy stream of batch-wide (configured-once) fabric."""
        return np.random.default_rng(np.random.SeedSequence(
            self.spec.seed, spawn_key=(_FABRIC_SHARED_AXIS, 0)))

    # -- fidelity ----------------------------------------------------------------

    def window_fidelity(self) -> FidelitySummary | None:
        """Fidelity measured by the last executed window (None = ideal).

        Populated by ``_execute`` / ``execute_window`` when the spec's
        nonideality is active; the sharded executor collects it per
        shard and folds shards with :meth:`merge_window_fidelity`.
        """
        return self._fidelity

    def _probe_fabric(self, fabric) -> None:
        """Measure and store the fabric's post-run fidelity.

        No-op for ideal fabrics; for nonideal ones, reads the whole
        array back through its own (spread/fault/IR-drop-aware) read
        chain and records the declared fidelity metrics in window item
        order, so shard concatenation reproduces the workers=1 fold.
        """
        if self.spec.nonideality.is_default():
            self._fidelity = None
            return
        items = fabric.items if isinstance(fabric, NonidealCrossbarStack) \
            else [fabric]
        with span("fidelity.probe", arrays=len(items)):
            self._fidelity = self._fidelity_of_crossbars(items)

    @staticmethod
    def _fidelity_of_crossbars(crossbars) -> FidelitySummary | None:
        """Probe and fold a deterministic sequence of nonideal arrays.

        Shared by the crossbar engines' post-run probe and the analog
        MVM engine's per-tile sweep: each array is read back through
        its own (spread/fault/IR-drop-aware) read chain and the
        declared fidelity metrics fold in sequence order, so shard
        concatenation reproduces the workers=1 fold.
        """
        summaries = []
        for item in crossbars:
            errors, cells, margin = probe_read_fidelity(item)
            summaries.append(FidelitySummary(
                bit_errors=errors,
                cells=cells,
                worst_sense_margin=margin,
                verify_retries=item.verify_retries,
                stuck_faults=item.fault_campaign.total,
            ))
        return FidelitySummary.merge_all(summaries)

    @classmethod
    def merge_window_fidelity(
        cls, summaries: list[FidelitySummary | None]
    ) -> FidelitySummary | None:
        """Fold per-shard fidelity summaries (shard order).

        The default sums the per-item axes and takes the margin
        minimum, matching :attr:`FidelitySummary.MERGE_POLICIES`;
        engines whose fidelity is window-independent (the AP's one-time
        configuration) override this.
        """
        return FidelitySummary.merge_all(summaries)

    # -- accuracy ----------------------------------------------------------------

    def window_accuracy(self) -> AccuracySummary | None:
        """Application accuracy of the last executed window.

        None for engines without an accuracy axis; the ``analog_mvm``
        engine populates it per window and the sharded executor folds
        shards with :meth:`merge_window_accuracy`.
        """
        return self._accuracy

    @classmethod
    def merge_window_accuracy(
        cls, summaries: list[AccuracySummary | None]
    ) -> AccuracySummary | None:
        """Fold per-shard accuracy summaries (shard order).

        Integer sums plus a float max, per
        :attr:`AccuracySummary.MERGE_POLICIES` -- exactly associative,
        so sharded accuracy is bit-identical to ``workers=1``.
        """
        return AccuracySummary.merge_all(summaries)

    # -- shard hooks -------------------------------------------------------------

    def execute_window(
        self, adapter: WorkloadAdapter
    ) -> tuple[dict[str, Any], CostSummary, list[CostSummary]]:
        """Execute the adapter's batch window on fresh hardware.

        Returns:
            ``(outputs, base_cost, item_costs)``: the window's workload
            outputs, the window-independent base cost (shared hardware:
            chip area, configuration counters -- identical for every
            window of a spec), and one cost record per window item.
            Item records depend only on that item's data, never on
            which other items share the window, so shards concatenate
            bit-identically (the determinism suite pins this).
        """
        raise ScenarioError(
            f"engine {self.name!r} does not support sharded execution"
        )

    @staticmethod
    def aggregate_cost(
        base: CostSummary, item_costs: list[CostSummary]
    ) -> CostSummary:
        """Fold ``base`` + per-item costs into the whole-run summary.

        Used identically by :meth:`run` and by the parallel merge path
        (over the concatenation of all shards' item costs, in original
        item order), so ``workers=1`` and ``workers=N`` produce the same
        floating-point sums.
        """
        raise NotImplementedError


@ENGINES.register("mvp")
class MVPEngine(Engine):
    """Single-item MVP: lower the workload and execute it on a crossbar."""

    name = "mvp"
    description = ("single-item Memristive Vector Processor on one "
                   "crossbar")
    uses_device = True
    nonideality_axes = frozenset({
        AXIS_FAULTS, AXIS_VARIABILITY, AXIS_IR_DROP, AXIS_WRITE_VERIFY,
    })

    def build_fabric(self, adapter):
        return self._crossbar_fabric(adapter)

    def _execute(self, adapter):
        with span("fabric.build"):
            crossbar = self.build_fabric(adapter)
        energy_model = energy_model_for(crossbar.params)
        processor = MVPProcessor(crossbar, energy_model=energy_model)
        with span("window.execute"):
            outputs = adapter.run_mvp(processor)
        cost = cost_from_mvp_stats(processor.stats)
        self._probe_fabric(crossbar)
        return outputs, cost, [cost]


@ENGINES.register("mvp_batched")
class BatchedMVPEngine(Engine):
    """Batched MVP: one program over every array of a crossbar stack."""

    name = "mvp_batched"
    description = ("batched MVP: one program over B logical crossbars "
                   "of a stack")
    supports_batch = True
    uses_device = True
    shardable = True
    nonideality_axes = frozenset({
        AXIS_FAULTS, AXIS_VARIABILITY, AXIS_IR_DROP, AXIS_WRITE_VERIFY,
    })

    def build_fabric(self, adapter):
        return self._crossbar_fabric(adapter)

    def execute_window(self, adapter):
        with span("fabric.build"):
            stack = self.build_fabric(adapter)
        processor = BatchedMVPProcessor(
            stack, energy_model=energy_model_for(stack.params))
        with span("window.execute"):
            outputs = adapter.run_mvp_batched(processor)
        item_costs = [
            cost_from_mvp_stats(processor.stats_for(i))
            for i in range(processor.batch)
        ]
        self._probe_fabric(stack)
        return outputs, CostSummary(), item_costs

    @staticmethod
    def aggregate_cost(base, item_costs):
        total = base
        for item in item_costs:
            total = total.merged_with(item)
        # Energy and event counters sum across items, but the timeline
        # is shared (one control stream drives all B arrays), so the
        # run's latency is the per-item latency, not B times it.
        return dataclasses.replace(
            total,
            latency_seconds=item_costs[0].latency_seconds,
        )


@ENGINES.register("rram_ap")
class RRAMAPEngine(Engine):
    """Hardware automata processor over the workload's automaton."""

    name = "rram_ap"
    description = ("hardware automata processor with priced "
                   "dot-product kernels")
    supports_batch = True
    engine_params = frozenset({"kernel"})
    shardable = True
    #: The AP realizes stuck-at faults in its STE configuration memory;
    #: analog axes (spread, IR drop, verify) belong to the crossbar
    #: engines -- the AP's dot-product kernel is priced from published
    #: records, not simulated electrically per read.
    nonideality_axes = frozenset({AXIS_FAULTS})

    def build_fabric(self, adapter):
        """The configured (and possibly fault-corrupted) AP processor.

        The chip is configured once and shared by every stream, so the
        fault campaign draws from the batch-wide fabric stream: every
        window of a sharded run corrupts the identical STE cells.
        """
        kernel_name = str(self.spec.params.get("kernel", "rram"))
        try:
            kernel = _KERNELS[kernel_name]
        except KeyError:
            raise ScenarioError(
                f"unknown AP kernel {kernel_name!r}; "
                f"choose from {sorted(_KERNELS)}"
            ) from None
        automaton = adapter.build_automaton()
        processor = AutomataProcessor(automaton, kernel=kernel)
        nonideality = self.spec.nonideality
        if nonideality.is_default():
            self._fidelity = None
            return processor
        matrix = processor.ste_matrix
        n_faults = nonideality.faults_for(*matrix.shape)
        flipped, total = inject_ste_faults(
            matrix, n_faults, self._fabric_shared_rng(),
            nonideality.stuck_at_one_fraction,
        )
        # Rebuild the STE array from the corrupted matrix rather than
        # relying on numpy aliasing to carry the mutation into the
        # configured operator (the electrical "crossbar" backend, for
        # one, programs its resistances at construction).
        processor.ste_array = STEArray(
            processor.alphabet, matrix, backend=processor.backend)
        self._fidelity = FidelitySummary(
            bit_errors=flipped,
            cells=int(matrix.size),
            worst_sense_margin=None,
            verify_retries=0,
            stuck_faults=total,
        )
        return processor

    @classmethod
    def merge_window_fidelity(cls, summaries):
        """The AP's fidelity is its one-time chip configuration --
        identical in every shard -- so shards agree and the merge keeps
        one copy instead of summing the same campaign N times."""
        present = [s for s in summaries if s is not None]
        if not present:
            return None
        if any(s != present[0] for s in present[1:]):
            raise ScenarioError(
                "AP shards report different configuration fidelity; "
                "the shared fabric stream should make them identical"
            )
        return present[0]

    def execute_window(self, adapter):
        with span("fabric.build"):
            processor = self.build_fabric(adapter)
        automaton = processor.automaton
        with span("window.execute"):
            traces, stream_costs = processor.run_batch(
                adapter.streams(), unanchored=adapter.unanchored
            )
        outputs = adapter.check_ap(traces)
        outputs.setdefault("accepted", [t.accepted for t in traces])
        area = processor.chip_cost().area_mm2()
        item_costs = [cost_from_run_cost(c, area_mm2=area)
                      for c in stream_costs]
        # The chip is configured once and shared by every stream: its
        # area and state count are window-independent base cost.
        base = CostSummary(area_mm2=area,
                           counters={"states": automaton.n_states})
        return outputs, base, item_costs

    @staticmethod
    def aggregate_cost(base, item_costs):
        cost = base
        for item in item_costs:
            cost = cost.merged_with(item)
        # Energy and symbol counts sum across streams, but multi-stream
        # mode steps every live stream through each kernel cycle in
        # parallel: the run's wall latency is the longest stream's, not
        # the sum (mirroring the batched MVP's shared timeline).
        if item_costs:
            cost = dataclasses.replace(
                cost,
                latency_seconds=max(
                    c.latency_seconds for c in item_costs),
            )
        return cost


@ENGINES.register("arch_model")
class ArchModelEngine(Engine):
    """Analytical Fig. 4 comparison under the workload's offload mix."""

    name = "arch_model"
    description = ("closed-form Fig. 4 CPU+MVP vs multicore "
                   "architecture comparison")

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        # The analytical model is deterministic and closed-form: it has
        # no problem-size or randomness axes.  Reject non-default values
        # rather than record provenance implying they were used.
        defaults = ScenarioSpec()
        ignored = [axis for axis in ("size", "items", "seed")
                   if getattr(spec, axis) != getattr(defaults, axis)]
        if ignored:
            raise ScenarioError(
                "engine 'arch_model' is a closed-form analytical model; "
                f"{ignored} would not change its results (leave them at "
                "their defaults; tune params['accelerated_fraction'] "
                "instead)"
            )

    def _execute(self, adapter):
        workload = adapter.arch_workload()
        sweep = run_fig4_sweep(workload=workload)
        ratios = {
            metric: sweep.geometric_mean_ratio(metric)
            for metric in ("eta_pe", "eta_e", "eta_pa")
        }
        ranges = {
            metric: sweep.ratio_range(metric)
            for metric in ("eta_pe", "eta_e", "eta_pa")
        }
        outputs = {
            "accelerated_fraction": workload.accelerated_fraction,
            "improvement_geomean": ratios,
            "improvement_range": ranges,
            "checks_passed": all(r > 1.0 for r in ratios.values()),
        }
        # Cost the MVP system's per-op figures at the paper's mid-grid
        # operating point (L1 = L2 = 30% miss).
        point = MVPSystemModel().evaluate(MissRates(0.3, 0.3), workload)
        per_op = cost_from_system_point(point)
        cost = CostSummary(
            energy_joules=per_op.energy_joules,
            latency_seconds=per_op.latency_seconds,
            area_mm2=per_op.area_mm2,
            counters={"grid_points": len(sweep.points)},
        )
        return outputs, cost, [cost]


@ENGINES.register("analog_mvm")
class AnalogMVMEngine(Engine):
    """Tiled analog in-memory MVM with accuracy-under-nonideality.

    Each batch item gets its own :class:`~repro.mvm.analog.
    AnalogAccelerator` -- the workload's weight matrices mapped to
    differential crossbar tiles, driven bit-serially through DAC/ADC
    stages -- seeded from the item's fabric entropy stream, so sharded
    execution stays bit-identical.  The workload adapter runs its
    evaluation through the fabric and scores it against its own float
    reference; the engine rolls the per-item
    :class:`~repro.mvm.accuracy.AccuracySummary` records and tile
    fidelity into the RunResult.
    """

    name = "analog_mvm"
    description = ("tiled analog crossbar MVM: differential pairs, "
                   "bit-sliced DAC/ADC, accuracy reporting")
    supports_batch = True
    uses_device = True
    shardable = True
    nonideality_axes = frozenset({
        AXIS_FAULTS, AXIS_VARIABILITY, AXIS_IR_DROP, AXIS_WRITE_VERIFY,
    })
    engine_params = frozenset(CONFIG_PARAM_KEYS)

    def mvm_config(self) -> MVMConfig:
        """The spec's quantization/tiling knob set."""
        try:
            return MVMConfig.from_params(self.spec.params)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    def warm_fabric_key(self) -> str | None:
        """Ideal analog fabrics are warm-reusable; nonideal never are.

        The key is the spec structure hash: everything that shapes the
        mapping (workload weights via seed/sizes, quantization knobs,
        device window) splits the entry, while batch width -- which
        only multiplies ledgers over the same mapped tiles -- shares it.
        """
        if not self.spec.nonideality.is_default():
            return None
        return f"analog_mvm/{self.spec.structure_hash()}"

    def build_fabric(self, adapter):
        """One per-item accelerator list, in window order.

        Item ``i``'s tiles draw all stochastic nonidealities from the
        absolute-index fabric stream, so its physics never depend on
        the window or sibling items.

        When the process has an active
        :class:`~repro.api.fabric_cache.FabricCache` (a warm serving
        worker), the ideal template mapping is kept warm across runs
        under :meth:`warm_fabric_key`: a later run whose first item's
        layers verify value-equal to the cached template's source
        serves every matching item a ledger twin instead of remapping.
        Verification makes reuse bit-identical by construction -- equal
        layers plus deterministic entropy-free mapping produce an equal
        accelerator, and twinning is pinned identical to fresh
        construction by the kernel-equivalence suite.
        """
        config = self.mvm_config()
        params = self.spec.device.resolve_parameters()
        nonideality = self.spec.nonideality
        energy_model = energy_model_for(params)
        ideal = nonideality.is_default()
        cache = active_fabric_cache() if ideal else None
        warm_key = self.warm_fabric_key() if cache is not None else None
        accelerators = []
        template = None
        template_layers: list | None = None
        warm_unverified = False
        if warm_key is not None:
            warm = cache.lookup(warm_key)
            if warm is not None:
                template, template_layers = warm
                warm_unverified = True
        for index in adapter.batch_indices:
            layers = adapter.mvm_layers(index)
            # Ideal fabrics are deterministic, entropy-free and
            # read-only, so items sharing the identical weight arrays
            # (e.g. one trained model inferred over many testsets) can
            # share one mapping and differ only in their ledgers.
            # Within a window the adapter hands out the same objects
            # (`is`); across warm runs the arrays are regenerated, so
            # the warm template additionally accepts value equality.
            if (ideal and template is not None
                    and _same_layers(layers, template_layers)):
                warm_unverified = False
                accelerators.append(template.ledger_twin())
                continue
            if warm_unverified:
                # The warm entry did not verify against this run's
                # layers (cache.lookup counted a hit above): demote it
                # to an honest miss and rebuild below.
                cache.miss()
                warm_unverified = False
                template = template_layers = None
            rng = None if ideal else self._fabric_item_rng(index)
            accelerator = AnalogAccelerator(
                layers, config, params=params,
                nonideality=nonideality, rng=rng,
                energy_model=energy_model,
            )
            if ideal:
                template, template_layers = accelerator, layers
                if warm_key is not None and not accelerators:
                    # Keep a zero-ledger twin of the first item's
                    # mapping warm (runs only ever execute twins of
                    # cached templates, so the stored mapping stays
                    # pristine); later runs verify against item 0.
                    cache.store(warm_key,
                                (accelerator.ledger_twin(), layers))
            accelerators.append(accelerator)
        return accelerators

    def execute_window(self, adapter):
        with span("fabric.build"):
            accelerators = self.build_fabric(adapter)
        # The window hook lets the adapter fuse same-geometry items
        # into grouped kernel dispatches; each item's ledger lives on
        # its own accelerator either way, so the per-item costs read
        # identically to the looped per-item path.
        with span("window.execute"):
            results = adapter.run_analog_window(
                list(adapter.batch_indices), accelerators)
        per_item_outputs = [outputs for outputs, _ in results]
        summaries = [summary for _, summary in results]
        item_costs = []
        for accelerator in accelerators:
            item_costs.append(CostSummary(
                energy_joules=accelerator.energy_joules,
                latency_seconds=accelerator.latency_seconds,
                counters={
                    "reads": accelerator.reads,
                    "adc_conversions": accelerator.adc_conversions,
                    "adc_saturations": accelerator.adc_saturations,
                    "program_cycles": accelerator.program_cycles(),
                    "tiles": len(accelerator.crossbars),
                },
            ))
        outputs = adapter.merge_shard_outputs(per_item_outputs)
        self._accuracy = AccuracySummary.merge_all(summaries)
        if self.spec.nonideality.is_default():
            self._fidelity = None
        else:
            with span("fidelity.probe"):
                self._fidelity = self._fidelity_of_crossbars([
                    crossbar
                    for accelerator in accelerators
                    for crossbar in accelerator.nonideal_crossbars
                ])
        return outputs, CostSummary(), item_costs

    @staticmethod
    def aggregate_cost(base, item_costs):
        total = base
        for item in item_costs:
            total = total.merged_with(item)
        # Items execute on independent per-item tile fabrics running
        # concurrently: energy and event counters sum, the run's wall
        # latency is the slowest item's (mirroring the AP's policy).
        if item_costs:
            total = dataclasses.replace(
                total,
                latency_seconds=max(
                    c.latency_seconds for c in item_costs),
            )
        return total


def _same_layers(layers, reference) -> bool:
    """Whether two weight-layer lists are interchangeable for mapping.

    Identity short-circuits the common shared-model case (adapters
    hand out the same arrays within a window, and process-cached
    models across runs); otherwise exact value equality decides --
    the mapping is a pure function of the values, so equal values
    guarantee an equal fabric.
    """
    if reference is None or len(layers) != len(reference):
        return False
    return all(
        a is b or (a.shape == b.shape and a.dtype == b.dtype
                   and bool(np.array_equal(a, b)))
        for a, b in zip(layers, reference)
    )


def run(spec: ScenarioSpec | Mapping[str, Any]) -> RunResult:
    """One-call facade: dispatch ``spec`` to its engine and run it."""
    return Engine.from_spec(spec).run()
