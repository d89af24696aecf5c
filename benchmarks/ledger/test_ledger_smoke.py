"""Smoke test of the ledger (not collected by tier-1; run as
``python -m pytest benchmarks/ledger``).

Drives ``run.py --smoke`` — every workload, tiny sizes, one traced run
each — and checks the output against BENCHMARK.json: every workload and
metric name appears, names are well-formed, no (workload, metric) cell
is missing, and every run was correct and left nothing behind.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
SPEC = json.loads((LEDGER.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_covers_benchmark_json(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke", "--json", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=170,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout
    assert elapsed <= 30, f"smoke took {elapsed:.1f} s"

    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in workloads + metrics:
        assert NAME.fullmatch(name), name
        assert name in proc.stdout, f"{name} not printed"

    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(workloads)
    for workload, cells in result["workloads"].items():
        missing = [m for m in metrics if m not in cells]
        assert not missing, f"{workload} lacks {missing}"
        assert all(run["correct"] for run in cells["_runs"]), cells["_runs"]
    assert not (LEDGER / ".run").exists()


def test_compare_accepts_a_set_against_itself(tmp_path):
    cell = {"unit": "x", "values": [1.0, 1.01, 0.99, 1.0]}
    one = {
        "workloads": {
            w["name"]: {
                **{m["name"]: cell for m in SPEC["end_to_end"]},
                "_runs": [{"correct": True, "attempted": 1, "failed": 0, "problems": []}],
            }
            for w in SPEC["workloads"]
        }
    }
    path = tmp_path / "a.json"
    path.write_text(json.dumps(one))
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "compare.py"), str(path), str(path)],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout.replace("0 cell(s) regressed", "")
