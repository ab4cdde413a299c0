#!/usr/bin/env python3
"""Compare two end-to-end benchmark results against the bounds in
``BENCHMARK.json``.

Usage::

    python3 benchmarks/e2e/compare.py A B

A (the parent) and B (the change) are each a results file written by
``bench.py --out``, or a directory of them whose per-repeat samples are
pooled.  For every (workload, end-to-end metric) on both sides it
prints both medians, their quartiles and the bound, with a verdict:

- ``within``: B's median is no worse than A's by more than the bound;
- ``worse``: it is worse by more than the bound;
- ``unresolved``: either side's quartile spread is wider than the
  bound, so a change of that size cannot be told from noise.  Two
  exceptions: every B sample beats every A sample (``within``), or
  every B sample is worse and the medians differ by more than the bound
  (``worse``).

Exits 1 if any pair is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Samples = Dict[str, Dict[str, List[float]]]


def load_side(path: Path) -> Samples:
    """Samples by workload and metric, pooled over the given results."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    pooled: Samples = defaultdict(lambda: defaultdict(list))
    for result in files:
        doc = json.loads(result.read_text())
        if doc.get("trace"):
            continue  # traced results hold per-layer metrics only
        for workload, body in doc["workloads"].items():
            for metric, entry in body["metrics"].items():
                pooled[workload][metric].extend(
                    entry.get("samples") or [entry["value"]])
    return pooled


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> Tuple[str, float]:
    """``(verdict, change)``; a positive change is B worse than A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (statistics.median(b) / statistics.median(a) - 1.0)
    worse = change > bound
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "within", change
        if worse and all(sign * y > sign * x for x in a for y in b):
            return "worse", change
        return "unresolved", change
    return ("worse" if worse else "within"), change


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A B", file=sys.stderr)
        return 2
    side_a, side_b = (load_side(Path(arg)) for arg in argv)
    declared = json.loads(BENCHMARK_FILE.read_text())["end_to_end"]
    rows = []
    for workload in sorted(set(side_a) & set(side_b)):
        for entry in declared:
            a = side_a[workload].get(entry["name"])
            b = side_b[workload].get(entry["name"])
            if not a or not b:
                continue
            result, change = verdict(a, b, entry["bound"], entry["better"])
            rows.append((workload, entry, a, b, result, change))
    if not rows:
        print("no (workload, metric) pair appears on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict")
    for workload, entry, a, b, result, change in rows:
        cells = []
        for values in (a, b):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.4g} "
                         f"[{q1:.4g}, {q3:.4g}] n={len(values)}")
        print(f"{workload:<16} {entry['name']:<12} {cells[0]:<30} "
              f"{cells[1]:<30} {change:>+8.1%} {entry['bound']:>6.0%}  "
              f"{result}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
