"""Run one workload of the repo benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

With ``--trace 0`` the whole timed phase runs untraced and the last line
of standard output is a JSON object whose ``metrics`` are the
``end_to_end`` metrics of ``BENCHMARK.json``.  With ``--trace 1`` a
span wraps each layer's entry point, and quarters of the timed phase run
untraced and under the ``repro.obs`` tracer in turn; the metrics are the
``per_layer`` ones, taken from the traced quarters.  The line before
the last is the full run record (``{"record": ...}``); ``--out`` also
appends that record to FILE for ``perfbench/compare.py``.

Exit status: 0 when every output checked correct, 1 when a check failed
(the result line is still printed), 2 on a usage or layout error, 3
when the open-loop generator fell behind and the run is invalid.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 -- the clock above must start first
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Import time of the benchmark and the package in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); "
            "from perfbench import config, layers, loads, record; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                          str(ROOT)], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def _end_to_end(phase, limit_ms):
    ops = phase.ops
    latencies = [1e3 * op.latency_s for op in ops]
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "runs_per_s": sum(op.ok for op in ops) / phase.wall_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
        "slo_met_ratio": sum(op.ok and 1e3 * op.latency_s <= limit_ms
                             for op in ops) / len(ops),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _rates(phase, workload):
    """The ROADMAP headline rates: simulated work per host second."""
    work = dict.fromkeys(("matvecs", "cells", "bit_ops", "symbols"), 0)
    for op in phase.ops:
        if not op.ok:
            continue
        if workload == "fault_sweep":
            work["cells"] += len(op.specs)
        for spec, outcome in zip(op.specs, op.outcomes):
            if spec.workload == "mlp_inference":
                # Two layers, one matvec per test sample per item.
                work["matvecs"] += 2 * spec.size * spec.batch
            work["bit_ops"] += outcome.bit_operations
            work["symbols"] += outcome.symbols
    return {f"{name}_per_s": count / phase.wall_s
            for name, count in work.items() if count}


def _per_layer(index, untraced, traced):
    from perfbench import config, layers

    ops = traced.ops
    metrics = layers.per_layer(index, len(ops))
    inline = [op for op in ops if op.inline_s is not None]
    # Sweep wall minus the in-process cell time spread over the workers.
    metrics["parallel.overhead_ms"] = 1e3 * sum(
        op.latency_s - op.inline_s / config.WORKERS for op in inline
    ) / len(ops)
    pool = traced.pool or {}
    fabric = pool.get("fabric_hits", 0) + pool.get("fabric_misses", 0)
    metrics["pool.busy_ratio"] = (
        pool["busy_s"] / (pool["workers"] * traced.wall_s) if pool else 0.0)
    metrics["pool.restarts"] = float(pool.get("restarts", 0))
    metrics["fabric_cache.hit_ratio"] = (
        pool["fabric_hits"] / fabric if fabric else 0.0)
    loadgen = traced.loadgen or {}
    metrics["loadgen.late_p90_ms"] = loadgen.get("late_p90_ms", 0.0)
    metrics["loadgen.backlog_max"] = loadgen.get("backlog_max", 0.0)
    # Mean latency: the inverse of runs_per_s on a closed loop, and what
    # tracing costs on the open loop, whose runs_per_s is the offered rate.
    mean_traced = statistics.fmean(op.latency_s for op in ops)
    mean_untraced = statistics.fmean(op.latency_s for op in untraced.ops)
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        mean_traced / mean_untraced - 1.0)
    return metrics


def _invalid_open_loop(phases):
    from perfbench import config

    for phase in phases:
        loadgen = phase.loadgen
        if loadgen is None:
            continue
        if loadgen["late_p90_ms"] > config.LOADGEN_LATE_LIMIT_MS:
            return (f"generator ran late: p90 {loadgen['late_p90_ms']:.1f} "
                    f"ms > {config.LOADGEN_LATE_LIMIT_MS} ms")
        if loadgen["backlog_growth"] > config.LOADGEN_BACKLOG_GROWTH_LIMIT:
            return (f"backlog grew by {loadgen['backlog_growth']:.1f} "
                    f"requests across the run")
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import config, layers, loads, record
    from repro.obs.trace import Tracer, activate_tracer, deactivate_tracer
    import_s = time.perf_counter() - _STARTED
    if args.workload not in loads.WORKLOADS or args.seconds <= 0:
        print(f"perfbench: unknown workload {args.workload!r} or "
              f"non-positive --seconds; workloads: {sorted(loads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = loads.WORKLOADS[args.workload](args.seed,
                                              ROOT / ".perfbench_tmp")
    entry_points = layers.EntryPoints()
    traced = tracer = None
    try:
        if args.trace and workload.trace_before_setup:
            entry_points.install()
        setup_runs = []
        for repeat in range(config.SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup(repeat)
            setup_runs.append(time.perf_counter() - started)
        if not args.trace:
            untraced = workload.phase(args.seconds)
        else:
            if not workload.trace_before_setup:
                entry_points.install()
            tracer = Tracer()
            parts = {False: [], True: []}
            for part in config.TRACE_ORDER:
                if part:
                    activate_tracer(tracer)
                try:
                    parts[part].append(workload.phase(
                        args.seconds / len(config.TRACE_ORDER), traced=part))
                finally:
                    deactivate_tracer()
            entry_points.remove()
            untraced, traced = (loads.Phase.merge(parts[False]),
                                loads.Phase.merge(parts[True]))
        phases = [untraced] + ([traced] if traced else [])
        ops = [op for phase in phases for op in phase.ops]
        workload.verify(ops)
        model, digest = record.model_stats(workload.model_results())
    finally:
        entry_points.remove()
        workload.close()

    invalid = _invalid_open_loop(phases)
    if invalid:
        print(f"perfbench: invalid run, not data: {invalid}", file=sys.stderr)
        return 3
    failed = sum(not op.ok for op in ops)
    end_to_end = _end_to_end(untraced, config.LATENCY_LIMIT_MS[args.workload])
    # The import is timed again in fresh interpreters, after the peak RSS
    # of the workload's own children has been read.
    import_runs = [import_s] + [_import_seconds() for _ in
                                range(config.SETUP_REPEATS - 1)]
    end_to_end["setup_s"] = (statistics.median(import_runs)
                             + statistics.median(setup_runs))
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **record.environment(ROOT),
        "workers": config.WORKERS,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "end_to_end": end_to_end,
        "rates": _rates(untraced, args.workload),
        "loadgen": untraced.loadgen,
        "model": model,
        "digest": digest,
    }
    if traced is None:
        values, kind = end_to_end, "end_to_end"
    else:
        index = layers.SpanIndex(tracer.records())
        values = _per_layer(index, untraced, traced)
        values.update(model)
        calls = layers.call_counts(index)
        rec["calls"] = calls
        rec["missing_calls"] = layers.missing_calls(calls, args.workload)
        kind = "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kind]}
    rec["metrics"] = metrics
    correct = failed == 0 and not rec.get("missing_calls")
    rec["correct"] = correct
    for target in rec.get("missing_calls", []):
        print(f"perfbench: entry point {target} was never called",
              file=sys.stderr)
    line = json.dumps({"record": rec}, sort_keys=True)
    if args.out is not None:
        with args.out.open("a") as out:
            out.write(line + "\n")
    for name, metric in metrics.items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"# {args.workload} model digest = {digest}")
    for target, count in rec.get("calls", {}).items():
        print(f"# {args.workload} calls {target} = {count}")
    print(line)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
