#!/usr/bin/env python3
"""The cost ledger: six workloads, end-to-end and per-layer rows.

One workload, as the benchmark driver calls it::

    python3 benchmarks/ledger/run.py --workload tiles_thread --seed 3 \\
        --seconds 15 --trace 0

prints a readable table and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of BENCHMARK.json (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).

Every workload (each in its own process, so set-up time, peak RSS and
thread counts are its own)::

    python3 benchmarks/ledger/run.py [--trace] [--smoke] [--repeat N] \\
        [--seed N] [--json OUT]

``OUT`` is what ``compare.py`` reads. See README.md for the method.
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import harness  # noqa: E402

#: A run is cut into slices this long (at least one op each); every
#: time metric is taken per slice and the favourable quartile over the
#: slices reported, because this class of box steps between ~0.6x and
#: 1x clock speed on a seconds scale and a median flips between the two.
SLICE_S = 1.0
#: Untimed driving before the first slice: a fresh process runs at the
#: low clock for its first ~2 s of CPU time.
RAMP_S = 2.0
#: Set-ups per run: the imports (the first in this process, the rest in
#: fresh interpreters) and the builds; ``setup_s`` is the sum of the medians.
SETUPS = 3
SMOKE_SECONDS = 0.6
WATCHDOG_S = 150.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: per-layer run with spans recorded")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; every workload untraced and traced")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--json", default=None, help="write detailed results here")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the spans as a Chrome trace")
    parser.add_argument("--probe-imports", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one workload --------------------------------------------------------------


def drive_slices(wl, seconds: float, traced=lambda k: False) -> List[Dict[str, Any]]:
    """Drive ``wl`` for ``seconds``, one slice at a time.

    Each slice gets its own rate, latency percentiles and CPU per op;
    CPU is the in-process time of the ops themselves plus what the
    workload's child processes burned while the slice ran.
    """
    children = wl.child_pids()
    slices = []
    end = time.perf_counter() + seconds
    while (left := end - time.perf_counter()) > 0:
        is_traced = traced(len(slices))
        cpu0 = sum(harness.proc_cpu_s(p) for p in children)
        samples = wl.drive(min(SLICE_S, left), traced=is_traced)
        cpu_s = sum(harness.proc_cpu_s(p) for p in children) - cpu0
        cpu_s += sum(s[2] for s in samples)
        lat_ms = [1e3 * s[1] for s in samples]
        busy = wl.busy_s(samples)
        slices.append({
            "traced": is_traced,
            "ops": len(samples),
            "failed": sum(1 for s in samples if not s[3]),
            "busy_s": busy,
            "ops_per_s": len(samples) / busy,
            "p50_ms": statistics.median(lat_ms),
            "p90_ms": harness.percentile(lat_ms, 90),
            "max_ms": max(lat_ms),
            "cpu_ms_per_op": 1e3 * cpu_s / len(samples),
        })
    return slices


def measure_end_to_end(wl, seconds: float, setup: Dict[str, Any]) -> Dict[str, Any]:
    with harness.ThreadSampler(wl.pids) as sampler:
        slices = drive_slices(wl, seconds)
    rss = sum(harness.proc_peak_rss_mb(p) for p in wl.pids())

    def over_slices(key: str, better: int) -> float:
        """The favourable quartile: index 0 = lower, 2 = upper."""
        return harness.quartiles([s[key] for s in slices])[better]

    values = {
        "setup_s": (statistics.median(setup["imports_s"])
                    + statistics.median(setup["builds_s"])),
        "ops_per_s": over_slices("ops_per_s", 2),
        "op_latency_p50_ms": over_slices("p50_ms", 0),
        "op_latency_p90_ms": over_slices("p90_ms", 0),
        "cpu_ms_per_op": over_slices("cpu_ms_per_op", 0),
        "peak_rss_mb": rss,
        "peak_threads": sampler.peak,
    }
    rates = harness.quartiles([s["ops_per_s"] for s in slices])
    detail = {
        "setup": setup,
        "slices": len(slices),
        "ops_per_s_quartiles": rates,
        "tail": {"op_latency_max_ms": max(s["max_ms"] for s in slices)},
    }
    return {"values": values, "detail": detail, "slices": slices}


def measure_layers(wl, seconds: float) -> Dict[str, Any]:
    """Alternate untraced and traced slices of one warm process.

    The untraced slices are the control ``ledger.trace_overhead_pct`` is
    taken against: same process, same warm state, interleaved.
    """
    with harness.ThreadSampler(wl.pids) as sampler:
        slices = drive_slices(wl, seconds, traced=lambda k: k % 2 == 1)
    return {"slices": slices, "peak_threads": sampler.peak}


def fold_layers(wl, layers: Dict[str, Any]) -> Dict[str, Any]:
    """Spans + counters of the traced slices -> the per-layer rows."""
    import tracing

    traced = wl.trace_result()
    on = [s for s in layers["slices"] if s["traced"]]
    off = [s for s in layers["slices"] if not s["traced"]]
    # A server child times its own traced windows; for an in-process
    # workload the traced wall is the traced ops' own durations.
    wall_s = traced.get("wall_s", sum(s["busy_s"] for s in on))
    values = tracing.per_layer(
        traced["summary"], traced["counters"],
        wall_s=wall_s,
        rate_traced=harness.quartiles([s["ops_per_s"] for s in on])[2] if on else 0.0,
        rate_untraced=harness.quartiles([s["ops_per_s"] for s in off])[2],
        peak_threads=layers["peak_threads"],
        real_time=wl.real_time,
        flops=wl.flops_per_op * sum(s["ops"] for s in on),
        client_p50_s=traced.get("client_p50_s"),
    )
    return {
        "values": values,
        "detail": {
            "spans": traced["summary"]["spans"],
            "traced_wall_s": wall_s,
            "blocking_ledger_pct": tracing.blocking_ledger(traced["summary"], wall_s),
        },
    }


def probe_imports() -> float:
    """The import part of set-up once more, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-imports"]
    return float(subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout)


def run_one(args: argparse.Namespace) -> int:
    # Before numpy loads: BLAS reads its thread variables only once.
    malloc_policy = harness.pin_process()
    harness.add_src_to_path()
    import workloads

    spec = harness.load_benchmark_spec()
    imports_s = time.perf_counter() - _ENTERED
    if args.probe_imports:
        print(repr(imports_s))
        return 0
    if args.workload not in workloads.BY_NAME:
        print(f"ledger: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    wl = workloads.BY_NAME[args.workload](
        args.seed, smoke=args.smoke, trace=bool(args.trace), trace_out=args.trace_out
    )
    started: List[int] = []
    harness.arm_watchdog(WATCHDOG_S)
    shm_before = harness.shm_entries()
    fp = harness.fingerprint(args.seed, malloc_policy)

    builds, imports = [], [imports_s]
    # Only an untraced run reports set-up time, so only it repeats it.
    for i in range(1 if args.smoke or args.trace else SETUPS):
        if i:
            wl.teardown()
            imports.append(probe_imports())
        t0 = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t0)
        started.extend(p for p in wl.child_pids() if p not in started)
    setup = {"imports_s": imports, "builds_s": builds}

    if not args.smoke:
        wl.drive(RAMP_S)
    if args.trace:
        layers = measure_layers(wl, seconds)
        slices = layers["slices"]
    else:
        result = measure_end_to_end(wl, seconds, setup)
        slices = result.pop("slices")
    problems = wl.finish()
    if args.trace:
        result = fold_layers(wl, layers)
    wl.teardown()
    leftover = harness.RUN_DIR.glob(f"*-{os.getpid()}.*")  # sockets, reports
    problems += harness.leaks(shm_before, started, leftover)

    attempted = sum(s["ops"] for s in slices)
    failed = sum(s["failed"] for s in slices)
    correct = failed == 0 and not problems
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(result["values"]):
        odd = sorted(set(units) ^ set(result["values"]))
        print(f"ledger: BENCHMARK.json and the harness disagree on {odd}", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": result["values"][name], "unit": unit}
        for name, unit in units.items()
    }

    print_report(args, wl, fp, seconds, metrics, result["detail"], problems,
                 attempted, failed)
    payload = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if args.json:
        harness.write_json(args.json, {
            **payload, "workload": wl.name, "trace": args.trace, "seconds": seconds,
            "smoke": args.smoke, "fingerprint": fp, "detail": result["detail"],
            "slices": slices, "problems": problems,
        })
    print(json.dumps(payload))
    return 0 if correct else 1


def print_report(args, wl, fp, seconds, metrics, detail, problems, attempted, failed):
    print(f"# ledger workload={wl.name} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}{' SMOKE (not comparable)' if args.smoke else ''}")
    print("# " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"# op = {wl.op}; closed loop, {wl.clients} client(s); "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    if "setup" in detail:
        q1, med, q3 = detail["ops_per_s_quartiles"]
        s = detail["setup"]
        print(f"# {detail['slices']} slices of >= {SLICE_S:g} s; time metrics are the "
              f"favourable quartile over slices")
        print(f"# ops_per_s over slices: q1={q1:.6g} median={med:.6g} q3={q3:.6g}")
        print(f"# setup_s: median of imports {[round(i, 3) for i in s['imports_s']]} "
              f"+ median of builds {[round(b, 3) for b in s['builds_s']]}")
        for name, value in detail["tail"].items():
            print(f"tail.{name:<39} {value:>14.6g} ms (diagnostic)")
    else:
        print(f"# blocking-thread ledger over {detail['traced_wall_s']:.3f} s traced "
              f"({detail['spans']} spans), percent of wall:")
        for name, pct in detail["blocking_ledger_pct"]:
            print(f"#   {name:<36} {pct:6.2f}")
    for p in problems:
        print(f"# PROBLEM: {p}")


# -- every workload ------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    spec = harness.load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    harness.RUN_DIR.mkdir(exist_ok=True)
    merged: Dict[str, Any] = {"workloads": {n: {} for n in names}, "fingerprints": []}
    status = 0
    modes = [0, 1] if args.smoke or args.trace else [0]
    for rep in range(args.repeat):
        seed = args.seed + rep
        for name in names:
            for trace in modes:
                out = harness.RUN_DIR / f"all-{os.getpid()}-{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--trace", str(trace), "--json", str(out)]
                if args.seconds:
                    cmd += ["--seconds", str(args.seconds)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                # The table, without the machine-readable last line.
                print("\n".join(proc.stdout.rstrip("\n").split("\n")[:-1]))
                print()
                if proc.returncode != 0:
                    print(f"ledger: {name} (trace={trace}) exited {proc.returncode}",
                          file=sys.stderr)
                    status = 1
                if not out.exists():
                    continue
                run = json.loads(out.read_text())
                out.unlink()
                merged["fingerprints"].append(run["fingerprint"])
                cells = merged["workloads"][name]
                for metric, m in run["metrics"].items():
                    cell = cells.setdefault(metric, {"unit": m["unit"], "values": []})
                    cell["values"].append(m["value"])
                cells.setdefault("_runs", []).append(
                    {k: run[k] for k in ("trace", "correct", "attempted", "failed", "problems")}
                )
    if harness.RUN_DIR.is_dir() and not any(harness.RUN_DIR.iterdir()):
        harness.RUN_DIR.rmdir()
    if args.json:
        harness.write_json(args.json, merged)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is None and not args.probe_imports:
        return run_all(args)
    try:
        return run_one(args)
    finally:
        # Also when set-up or an op raised: no worker, server or helper
        # process may outlive the run, nor its socket or report file.
        harness.kill_children()
        for path in harness.RUN_DIR.glob(f"*-{os.getpid()}.*"):
            path.unlink()


if __name__ == "__main__":
    sys.exit(main())
