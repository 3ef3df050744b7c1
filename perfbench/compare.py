"""Compare two sets of benchmark results side by side.

Usage:

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files holding the standard output of any number of
``perfbench/run.py`` runs (for instance ``run.py ... >> base.jsonl``); the
record line each run prints before its result is what is read. For every
workload and metric the table shows each side's median and quartiles. A
metric with a bound in BENCHMARK.json is flagged:

    within   CHANGE's median is not worse than BASE's by more than the bound
    worse    it is worse by more than the bound
    unresolved  either side's quartile spread, as a share of its median,
             exceeds the bound, and not every CHANGE run beats every BASE run

Per-layer metrics have no bound and are shown without a flag.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path) -> dict:
    """{(workload, trace): {metric: [values]}} from a file of run output."""
    out = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line).get("record")
        except (json.JSONDecodeError, AttributeError):
            continue
        if not record:
            continue
        metrics = out.setdefault((record["workload"], record["trace"]), {})
        reported = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, value in reported.items():
            if value is not None:
                metrics.setdefault(name, []).append(value)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound) -> str:
    if bound is None:
        return ""
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * c < sign * b for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "within"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_records(argv[0]), load_records(argv[1])
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): {len(next(iter(base[key].values()), []))} "
              f"base runs, {len(next(iter(change[key].values()), []))} change runs")
        print(f"{'metric':40s} {'base q1/median/q3':>36s} {'change q1/median/q3':>36s}  flag")
        for name in base[key]:
            if name not in change[key] or name not in meta:
                continue
            better, bound = meta[name]
            flag = verdict(base[key][name], change[key][name], better, bound)
            worse += flag == "worse"
            cols = ["/".join(f"{v:.4g}" for v in quartiles(side[key][name]))
                    for side in (base, change)]
            print(f"{name:40s} {cols[0]:>36s} {cols[1]:>36s}  {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
