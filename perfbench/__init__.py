"""The repo benchmark: workloads over the public ``repro`` API.

Run from the repository root::

    python3 perfbench/run.py --workload fault_sweep --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` at the root lists the workloads, the end-to-end
metrics (printed with ``--trace 0``) and the per-layer metrics (printed
with ``--trace 1``).  ``python3 perfbench/compare.py OLD NEW`` compares
two sets of run records written with ``--out``.
"""
