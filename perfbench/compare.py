"""Compare two results files written by ``run.py --out``.

For each workload and metric: each side's median and quartiles over its
runs, the ratio B/A, and a verdict against the bound BENCHMARK.json fixes
for the metric.  A metric whose run-to-run spread (quartile distance over
median) on either side is wider than its bound is "unresolved", unless every
run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_runs(path: str) -> dict:
    """(workload, trace, metric) -> (unit, [values])"""
    out: dict = defaultdict(lambda: (None, []))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, m in run["details"].items():
                key = (run["workload"], run["trace"], name)
                out[key] = (m["unit"], out[key][1] + [m["value"]])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], bound: float | None, higher: bool) -> str:
    if bound is None:
        return "-"
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0 or qb[1] == 0:
        return "unresolved"
    sign = 1.0 if higher else -1.0
    change = sign * (qb[1] - qa[1]) / abs(qa[1])  # > 0 means B is better
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if spread > bound:
        return "better, every run" if min(sign * v for v in b) > max(sign * v for v in a) else "unresolved"
    if change < -bound:
        return "WORSE beyond bound"
    if change > bound:
        return "better beyond bound"
    return "within bound"


def main(paths: list[str], benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load_runs(paths[0]), load_runs(paths[1])
    print(f"A = {paths[0]}\nB = {paths[1]}")
    print(f"{'workload':11s} {'metric':32s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'B/A':>8s}  verdict (bound)")
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace, name = key
        unit, a = side_a[key]
        b = side_b[key][1]
        qa, qb = quartiles(a), quartiles(b)
        higher = better.get(name, "higher" if unit.endswith("/s") else "lower") == "higher"
        bound = bounds.get(name) if trace == 0 else None
        ratio = f"{qb[1] / qa[1]:8.4f}" if qa[1] else "     n/a"
        note = f" ({bound})" if bound is not None else ""
        print(f"{workload:11s} {name:32s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
              f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {ratio}  "
              f"{verdict(a, b, bound, higher)}{note}  {unit}, n={len(a)}/{len(b)}")
    return 0
