"""Compare two sets of benchmark run records.

Usage, from the repository root::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records that ``perfbench/run.py --out FILE`` appended
(or a captured standard output of ``run.py``).  For every workload the
script prints each end-to-end metric's median on both sides, the change,
and the bound ``BENCHMARK.json`` fixes for it; then it names the
per-layer time whose median moved most, and says whether the simulated
statistics digests of the seeds both sides ran agree.  Exit status 1
means some metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    records = []
    for line in path.read_text().splitlines():
        if line.startswith('{"record"'):
            records.append(json.loads(line)["record"])
    if not records:
        raise SystemExit(f"compare: no run records in {path}")
    return records


def medians(records: list[dict], trace: int) -> dict[str, dict[str, float]]:
    """Per workload, the median of each metric over its records."""
    values: dict[str, dict[str, list]] = collections.defaultdict(
        lambda: collections.defaultdict(list))
    for rec in records:
        if rec["trace"] == trace:
            for name, metric in rec["metrics"].items():
                values[rec["workload"]][name].append(metric["value"])
    return {workload: {name: statistics.median(v) for name, v in m.items()}
            for workload, m in values.items()}


def digests(records: list[dict]) -> dict[tuple[str, int], str]:
    return {(rec["workload"], rec["seed"]): rec["digest"] for rec in records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load(args.old), load(args.new)
    old_e2e, new_e2e = medians(old, 0), medians(new, 0)
    old_layer, new_layer = medians(old, 1), medians(new, 1)
    old_digest, new_digest = digests(old), digests(new)
    regressions = 0
    for workload in (w["name"] for w in bench["workloads"]):
        print(f"== {workload}")
        if workload in old_e2e and workload in new_e2e:
            for metric in bench["end_to_end"]:
                name = metric["name"]
                before = old_e2e[workload][name]
                after = new_e2e[workload][name]
                change = (after - before) / before if before else 0.0
                worse = -change if metric["better"] == "higher" else change
                verdict = "ok"
                if worse > metric["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
                elif worse < -metric["bound"]:
                    verdict = "better"
                print(f"  {name:16s} {before:12.5g} -> {after:12.5g} "
                      f"{metric['unit']:6s} {100 * change:+7.2f}% "
                      f"(bound {100 * metric['bound']:.0f}%) {verdict}")
        else:
            print("  no untraced records on both sides")
        if workload in old_layer and workload in new_layer:
            moves = {
                name: new_layer[workload][name] - old_layer[workload][name]
                for name in old_layer[workload]
                if name.endswith("_ms") and name in new_layer[workload]
            }
            name = max(moves, key=lambda n: abs(moves[n]))
            print(f"  largest per-layer move: {name} "
                  f"{old_layer[workload][name]:.4g} -> "
                  f"{new_layer[workload][name]:.4g} ms per operation")
        shared = [key for key in old_digest
                  if key[0] == workload and key in new_digest]
        if shared:
            same = sum(old_digest[k] == new_digest[k] for k in shared)
            print(f"  simulated-statistics digest identical on "
                  f"{same}/{len(shared)} shared seeds")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
