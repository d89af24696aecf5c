#!/usr/bin/env python3
"""Compare two ledger result files under BENCHMARK.json's bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first of two sets of
the same commit), ``B`` the candidate; both come from
``run.py --json OUT`` (ideally with ``--repeat N`` so each cell holds
several runs). One row per (workload, end-to-end metric):

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the runs of either side spread (q3 - q1) / median
  wider than the bound, so the cell cannot say "unchanged" — unless
  every run of B reads better than every run of A, which is ``ok``;
* ``ok``         — otherwise.

Exit status 1 if any cell regressed. Per-layer metrics carry no bound
and are listed only with ``--layers``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import harness


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    med_a, med_b = harness.quartiles(a)[1], harness.quartiles(b)[1]
    if worse_by(med_a, med_b, better) > bound:
        return "regressed"
    if max(harness.spread(a), harness.spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "ok"


def cell(values: List[float]) -> str:
    q1, med, q3 = harness.quartiles(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a: Dict, b: Dict, spec: Dict, layers: bool) -> int:
    regressed = 0
    print(f"{'workload':<16} {'metric':<40} {'A median [q1, q3]':<40} "
          f"{'B median [q1, q3]':<40} {'worse by':>9} {'bound':>6}  verdict")
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
    if layers:
        metrics += [(m, None) for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        cells_a = a["workloads"].get(workload, {})
        cells_b = b["workloads"].get(workload, {})
        for metric, bound in metrics:
            name = metric["name"]
            if name not in cells_a or name not in cells_b:
                if bound is not None:
                    print(f"{workload:<16} {name:<40} missing from "
                          f"{'A' if name not in cells_a else 'B'}")
                    regressed += 1
                continue
            va, vb = cells_a[name]["values"], cells_b[name]["values"]
            change = worse_by(harness.quartiles(va)[1], harness.quartiles(vb)[1],
                              metric["better"])
            if bound is None:
                tail = f"{100 * change:>8.1f}% {'-':>6}  -"
            else:
                v = verdict(va, vb, metric["better"], bound)
                regressed += v == "regressed"
                tail = f"{100 * change:>8.1f}% {100 * bound:>5.0f}%  {v}"
            print(f"{workload:<16} {name:<40} {cell(va):<40} {cell(vb):<40} {tail}")
    return regressed


def incorrect_runs(result: Dict) -> List[str]:
    return [
        f"{workload}: {run['failed']}/{run['attempted']} failed {run['problems']}"
        for workload, cells in result["workloads"].items()
        for run in cells.get("_runs", [])
        if not run["correct"]
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--layers", action="store_true",
                        help="also list per-layer metrics (no verdict)")
    args = parser.parse_args(argv)
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    regressed = compare(a, b, harness.load_benchmark_spec(), args.layers)
    bad = incorrect_runs(a) + incorrect_runs(b)
    for line in bad:
        print(f"INCORRECT {line}")
    print(f"{regressed} cell(s) regressed, {len(bad)} incorrect run(s)")
    return 1 if regressed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
