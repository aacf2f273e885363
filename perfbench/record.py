"""What a run record says about where and on what code it ran, and the
exact simulated statistics of a workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.api import RunResult


def environment(root: Path) -> dict[str, Any]:
    """The ROADMAP 1(a) fields: git rev, CPU count, versions.

    Outside a git checkout the rev is None (git is not asked, so nothing
    above ``root`` is read).
    """
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass  # no usable git: the rev stays unknown
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def model_stats(results: Sequence[RunResult]) -> tuple[dict[str, float], str]:
    """Simulated statistics summed over ``results``, and their digest.

    The model has no silicon reference, so these are reported as exact
    counts of an unvalidated model, with no error figure.  A change that
    only speeds up the simulator must leave all of them, and the digest
    over every result's cost, fidelity and accuracy record, identical.
    """
    def counter(name: str) -> int:
        return sum(r.cost.counters.get(name, 0) for r in results)

    accuracy = [r.accuracy for r in results if r.accuracy is not None]
    fidelity = [r.fidelity for r in results if r.fidelity is not None]
    total = sum(a.total for a in accuracy)
    cells = sum(f.cells for f in fidelity)
    stats = {
        "model.energy_j": sum(r.cost.energy_joules for r in results),
        "model.latency_s": sum(r.cost.latency_seconds for r in results),
        "model.adc_conversions": counter("adc_conversions"),
        "model.bit_operations": counter("bit_operations"),
        "model.symbols": counter("symbols"),
        "model.task_accuracy": (sum(a.correct for a in accuracy) / total
                                if total else 0.0),
        "model.bit_error_rate": (sum(f.bit_errors for f in fidelity) / cells
                                 if cells else 0.0),
    }
    records = [
        {"cost": r.cost.to_dict(),
         "item_costs": [c.to_dict() for c in r.item_costs],
         "fidelity": None if r.fidelity is None else r.fidelity.to_dict(),
         "accuracy": None if r.accuracy is None else r.accuracy.to_dict()}
        for r in results
    ]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    return stats, digest
