"""Hot-path performance microbenchmarks with a CI regression gate.

The paper's §III evaluation is an overhead story — hStreams adds only
20–30 µs per small transfer and <5 % on multi-MB payloads — and per-
enqueue cost is what caps achievable stream concurrency. This module
measures the runtime's enqueue→dispatch hot path and emits rows with the
fixed schema ``{bench, metric, value, unit, n, backend}`` (the
``BENCH_perf.json`` artifact), so a committed baseline can gate CI.

Benches:

* ``enqueue_scan`` — :meth:`StreamWindow.deps_for` latency and scan
  counters vs in-flight window depth (10/100/1k/5k) for the conflict-
  indexed :class:`~repro.core.dependences.RelaxedPolicy`, on a
  per-action-buffer (``disjoint``) and a shared-buffer workload. (The
  full-window oracle the index is verified against is test support,
  ``tests/oracle.py``; ``tests/bench/test_perf.py`` holds the
  indexed-beats-naive comparison.)
* ``enqueue_admission`` — full ``enqueue_compute`` latency through the
  scheduler at held window depth (thread backend, blocked kernels),
  plus allocated heap blocks per enqueue.
* ``dispatch_throughput`` — end-to-end actions/second for dependence-
  free no-op computes on all three backends (thread, sim, process).
  The process number prices one pipelined IPC command per action; it
  exists to make that cost visible next to the in-process backends,
  not to win.
* ``completion_retire`` — heap blocks the completion path retains per
  retired action (sim backend, gc off): the lifecycle record and what
  it holds, net of the graph node it replaces. Gated, lower is better.
* ``live_threads`` — OS threads a thread-backend runtime keeps alive
  with 10 000 live streams that each ran one action. Streams are slots
  in a per-domain worker set bounded by the device's cores, so the
  count is the host device's core count however many streams exist.
  Gated against the bar itself: host cores + 2.
* ``cpu_scaling`` — a deliberately GIL-bound pure-Python matmul kernel
  spread over two card domains, thread backend vs process backend at
  identical DAG shape. The thread backend serialises the Python
  bytecode on the GIL; the process backend runs one worker per domain.
  Gated (full runs on >=2 CPUs only): ``process_speedup_shortfall_pct`` is
  ``max(0, 100 - round(100*thread_wall/process_wall))``, committed
  baseline 0, so CI fails exactly when the process backend stops
  beating the thread backend on CPU-bound work across >=2 domains.
* ``transfer_overhead`` — virtual per-transfer cost vs payload size on
  the sim backend, mirroring §III.
* ``elision`` — redundant-transfer elision count (deterministic).
* ``replay_rtm_pair`` — capture-once/replay-many vs per-iteration
  re-enqueue on a pipelined RTM step sequence (two ranks, halo/bulk
  computes over field+velocity tensors, d2h/h2d halo exchange behind
  cross-stream waits, several steps in flight between host syncs).
  Gates that replay runs **zero** dependence-scan comparisons, that
  per-iteration admission cost stays at least 5x better than the
  re-enqueue path at the same DAG size, and the graph edges the
  re-enqueue path wires per iteration.
* ``sanitizer_overhead`` — enqueue admission with the rtsan sanitizer
  off (before and after a sanitized runtime lived in the process) and
  on. Gates that a closed sanitizer leaves the sanitizer-off hot path
  within 2 % of the never-sanitized control.
* ``collectives`` — planned broadcast schedules on the contention-aware
  cluster fabric. Gates that pipelined multicast to >=16 simulated
  domains completes in at most **half** the serial N-xfer loop's
  virtual time (the schedules' win is deterministic virtual time, so
  the ratio is a stable counter), and that replaying a captured
  collective runs **zero** dependence-scan comparisons.

Gating: rows with unit ``"count"`` are deterministic counters (scan
candidates/comparisons, elisions, allocations) and are compared against
the baseline by :func:`check_rows`; wall-clock and virtual-time rows
(unit ``"s"``, ``"ops/s"``) are reported but never gate. Allocation
counters vary slightly across CPython versions, so they get at least a
2x allowance regardless of ``--tolerance``.

CLI::

    python -m repro.bench.perf [--quick] [--json PATH|-]
        [--check BASELINE.json] [--tolerance 0.25]

Exit status: 0 on success, 1 when ``--check`` finds a regression.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.actions import Action, ActionKind, Operand, OperandMode
from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.dependences import StreamWindow

__all__ = [
    "PerfRow",
    "run_suite",
    "check_rows",
    "format_rows",
    "rows_to_json",
    "rows_from_json",
    "main",
]

#: Rows with this unit are deterministic counters and gate regressions.
GATED_UNIT = "count"

#: Default relative regression allowance for gated counters.
DEFAULT_TOLERANCE = 0.25

#: Metrics matching this substring are allocator-dependent: they gate
#: with at least a 2x allowance (CPython versions differ slightly).
_ALLOC_METRIC = "alloc"

_DEPTHS = (10, 100, 1000, 5000)
_QUICK_DEPTHS = (10, 100)


@dataclass(frozen=True)
class PerfRow:
    """One measurement in the ``BENCH_perf.json`` schema."""

    bench: str
    metric: str
    value: float
    unit: str
    n: int
    backend: str


def _window_action(operands: Sequence[Operand], barrier: bool = False) -> Action:
    return Action(
        kind=ActionKind.SYNC if barrier else ActionKind.COMPUTE,
        stream=None,
        operands=tuple(operands),
        barrier=barrier,
    )


def _fill_window(
    window: StreamWindow, depth: int, workload: str
) -> Tuple[List[Buffer], Action]:
    """Populate ``window`` with ``depth`` unretired writers; return the
    buffers and a probe action conflicting with a bounded subset."""
    space = ProxyAddressSpace()
    if workload == "disjoint":
        # One buffer per in-flight action — tiled pipelines where every
        # stage owns its slice. Conflict set of the probe: 1.
        bufs = [Buffer(space, nbytes=64) for _ in range(depth)]
        for buf in bufs:
            window.add(_window_action([Operand(buf, 0, 64, OperandMode.OUT)]))
        probe = _window_action([Operand(bufs[-1], 0, 64, OperandMode.IN)])
    elif workload == "shared":
        # Eight shared buffers, 64-byte slices cycling per action: every
        # bucket holds depth/8 entries, the probe range conflicts with
        # the writers of one slice.
        bufs = [Buffer(space, nbytes=4096) for _ in range(8)]
        for i in range(depth):
            buf = bufs[i % 8]
            offset = (i * 64) % 4096
            window.add(_window_action([Operand(buf, offset, 64, OperandMode.OUT)]))
        probe = _window_action([Operand(bufs[0], 0, 64, OperandMode.INOUT)])
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown workload {workload!r}")
    return bufs, probe


def bench_enqueue_scan(
    rows: List[PerfRow], depths: Sequence[int], probes: int
) -> None:
    """deps_for latency + deterministic scan counters vs window depth."""
    for workload in ("disjoint", "shared"):
        for depth in depths:
            window = StreamWindow()
            _bufs, probe = _fill_window(window, depth, workload)
            candidates0 = window.scan_candidates
            comparisons0 = window.scan_comparisons
            samples: List[float] = []
            for _ in range(probes):
                t0 = time.perf_counter()
                window.deps_for(probe)
                samples.append(time.perf_counter() - t0)
            bench = f"enqueue_scan:{workload}:indexed:d{depth}"
            rows.append(
                PerfRow(
                    bench,
                    "scan_candidates",
                    (window.scan_candidates - candidates0) / probes,
                    GATED_UNIT,
                    probes,
                    "window",
                )
            )
            rows.append(
                PerfRow(
                    bench,
                    "scan_comparisons",
                    (window.scan_comparisons - comparisons0) / probes,
                    GATED_UNIT,
                    probes,
                    "window",
                )
            )
            rows.append(
                PerfRow(
                    bench,
                    "deps_for_p50_s",
                    statistics.median(samples),
                    "s",
                    probes,
                    "window",
                )
            )


def _blocked_runtime(depth: int):
    """A thread-backend runtime holding ``depth`` blocked disjoint
    computes in one stream's window. Returns (runtime, stream, gate)."""
    import threading

    from repro.core.runtime import HStreams

    gate = threading.Event()
    hs = HStreams(backend="thread", trace=False)
    hs.register_kernel("block", fn=lambda *_args: gate.wait())
    stream = hs.stream_create(domain=0, ncores=1)
    for _ in range(depth):
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(
            stream, "block", operands=(buf.range(0, 64, OperandMode.OUT),)
        )
    return hs, stream, gate


def bench_enqueue_admission(
    rows: List[PerfRow], depths: Sequence[int], measure: int
) -> None:
    """Full enqueue latency through the scheduler at held window depth."""
    for depth in depths:
        hs, stream, gate = _blocked_runtime(depth)
        try:
            operands = []
            for _ in range(measure):
                buf = hs.buffer_create(nbytes=64)
                operands.append(buf.range(0, 64, OperandMode.OUT))
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                samples: List[float] = []
                blocks0 = sys.getallocatedblocks()
                for op in operands:
                    t0 = time.perf_counter()
                    hs.enqueue_compute(stream, "block", operands=(op,))
                    samples.append(time.perf_counter() - t0)
                blocks = sys.getallocatedblocks() - blocks0
            finally:
                if gc_was_enabled:
                    gc.enable()
            bench = f"enqueue_admission:indexed:d{depth}"
            rows.append(
                PerfRow(
                    bench,
                    "enqueue_p50_s",
                    statistics.median(samples),
                    "s",
                    measure,
                    "thread",
                )
            )
            rows.append(
                PerfRow(
                    bench,
                    "allocated_blocks_per_enqueue",
                    blocks / measure,
                    GATED_UNIT,
                    measure,
                    "thread",
                )
            )
        finally:
            gate.set()
            hs.fini()


def _noop_kernel(*_args) -> None:
    """Module-level no-op: picklable, so the process backend ships it to
    a worker instead of falling back host-side."""


def _py_matmul_kernel(out, n: int, reps: int) -> None:
    """Naive pure-Python matmul — deliberately GIL-bound CPU work.

    No numpy in the hot loop: BLAS releases the GIL, which would let the
    thread backend scale too and hide exactly the contention this bench
    exists to show. Module-level so it pickles across the process
    boundary; the scalar result lands in ``out`` (a shared-memory view
    under the process backend) so the work cannot be optimised away.
    """
    a = [[float((i * n + j) % 7) for j in range(n)] for i in range(n)]
    b = [[float((i + j) % 5) for j in range(n)] for i in range(n)]
    acc = 0.0
    for _ in range(int(reps)):
        for i in range(n):
            ai = a[i]
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += ai[k] * b[k][j]
                acc += s
    out[0] = acc


def bench_dispatch_throughput(rows: List[PerfRow], count: int) -> None:
    """End-to-end dependence-free dispatch rate on all three backends."""
    from repro.core.runtime import HStreams
    from repro.sim.kernels import KernelCost

    for backend in ("thread", "sim", "process"):
        hs = HStreams(backend=backend, trace=False)
        hs.register_kernel(
            "noop",
            fn=_noop_kernel,
            cost_fn=lambda *_args: KernelCost("noop", flops=1e3, size=1.0),
        )
        stream = hs.stream_create(domain=0 if backend == "thread" else 1)
        ops = []
        for _ in range(count):
            buf = hs.buffer_create(nbytes=64)
            ops.append(buf.range(0, 64, OperandMode.OUT))
        t0 = time.perf_counter()
        for op in ops:
            hs.enqueue_compute(stream, "noop", operands=(op,))
        hs.thread_synchronize()
        elapsed = time.perf_counter() - t0
        hs.fini()
        rows.append(
            PerfRow(
                "dispatch_throughput",
                "actions_per_s",
                count / elapsed if elapsed > 0 else float("inf"),
                "ops/s",
                count,
                backend,
            )
        )


def bench_completion_allocations(rows: List[PerfRow], count: int) -> None:
    """Heap blocks the completion path retains per retired action (sim).

    Admits ``count`` computes (a dependent chain on each of four
    streams) before virtual time moves, then counts the blocks still
    allocated after the engine ran and retired them all: the lifecycle
    record and what it holds, net of the graph node it replaces.
    ``count`` stays within the default record history, so every record
    is kept. A warm-up runtime runs first, so first-use caches are not
    counted.
    """
    from repro.core.runtime import HStreams
    from repro.sim.kernels import KernelCost
    from repro.sim.platforms import make_platform

    def blocks_per_completion() -> float:
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel(
            "noop", cost_fn=lambda *_args: KernelCost("noop", flops=1e3, size=1.0)
        )
        streams = [hs.stream_create(domain=1, ncores=4) for _ in range(4)]
        operands = [hs.buffer_create(nbytes=64).all_inout() for _ in streams]
        events = [
            hs.enqueue_compute(streams[i % 4], "noop", operands=(operands[i % 4],))
            for i in range(count)
        ]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            blocks0 = sys.getallocatedblocks()
            hs.thread_synchronize()
            blocks = sys.getallocatedblocks() - blocks0
        finally:
            if gc_was_enabled:
                gc.enable()
        assert all(ev.record is not None for ev in events)
        hs.fini()
        return blocks / count

    blocks_per_completion()
    rows.append(
        PerfRow(
            "completion_retire:chains4",
            "allocated_blocks_per_completion",
            blocks_per_completion(),
            GATED_UNIT,
            count,
            "sim",
        )
    )


def bench_live_threads(rows: List[PerfRow], streams: int) -> None:
    """Threads alive for ``streams`` live streams that each ran an action.

    Every stream's one kernel blocks on a gate until all are enqueued,
    so the host domain's worker set grows to its bound — the device's
    core count — and the row is a deterministic count, not a race
    between the enqueue loop and the workers. Reported as the threads
    the runtime added to the process, so it reads the same from the
    CLI and from inside a test run.
    """
    import threading

    from repro.core.runtime import HStreams

    gate = threading.Event()
    before = threading.active_count()
    hs = HStreams(backend="thread", trace=False)
    hs.register_kernel("hold", fn=gate.wait)
    try:
        for _ in range(streams):
            hs.enqueue_compute(hs.stream_create(domain=0, ncores=1), "hold")
        gate.set()
        hs.thread_synchronize()
        live = threading.active_count() - before
    finally:
        gate.set()
        hs.fini()
    rows.append(
        PerfRow(
            f"live_threads:{streams // 1000}k_streams:thread",
            "os_threads",
            live,
            GATED_UNIT,
            streams,
            "thread",
        )
    )


def bench_cpu_scaling(
    rows: List[PerfRow], reps: int, actions: int, gate: bool
) -> None:
    """GIL-bound matmul over two card domains: threads vs processes.

    Identical DAG on both backends — one stream per card domain, the
    same pure-Python matmul kernel (:func:`_py_matmul_kernel`), the
    same action count. The thread backend's two slot threads contend
    for the GIL, so wall time is the serial sum; the process backend
    runs one worker per domain and overlaps them. A warm-up action per
    domain is run before timing so worker spawn, kernel shipping and
    segment attachment are excluded — the row measures steady-state
    scaling, which is what the backend exists to buy.

    The gated row encodes the acceptance bar the way this suite always
    does (budget-style, committed baseline 0):
    ``process_speedup_shortfall_pct`` is how far the process backend
    falls short of merely *matching* the thread backend. Any genuine
    parallel speedup leaves it at 0 with a wide margin; with the gate's
    +1 absolute slack, CI fails exactly when CPU-bound work stops being
    faster on processes than on threads. Quick/smoke runs emit it as
    informational — at small reps the kernel no longer dominates the
    IPC round trip and the ratio is load noise — and so does any
    machine with a single CPU, where the speedup physically cannot
    exist (two processes time-slice one core just like two threads do).
    The committed baseline row is therefore the bar itself (0), written
    as such, not a lucky measurement from whatever box generated the
    artifact.
    """
    import os

    from repro.core.runtime import HStreams
    from repro.sim.platforms import make_platform

    gate = gate and (os.cpu_count() or 1) >= 2

    domains = (1, 2)
    walls: Dict[str, float] = {}
    for backend in ("thread", "process"):
        hs = HStreams(
            platform=make_platform("HSW", len(domains)),
            backend=backend,
            trace=False,
        )
        hs.register_kernel("pymatmul", fn=_py_matmul_kernel)
        streams = [hs.stream_create(domain=d, ncores=1) for d in domains]
        bufs = []
        for stream in streams:
            buf = hs.buffer_create(nbytes=64)
            hs.enqueue_xfer(stream, buf.all_out())
            bufs.append(buf)
        for stream, buf in zip(streams, bufs):
            hs.enqueue_compute(
                stream, "pymatmul", args=(buf.tensor((8,)), 8, 1)
            )
        hs.thread_synchronize()
        t0 = time.perf_counter()
        for _ in range(actions):
            for stream, buf in zip(streams, bufs):
                hs.enqueue_compute(
                    stream, "pymatmul", args=(buf.tensor((8,)), 24, reps)
                )
        hs.thread_synchronize()
        walls[backend] = time.perf_counter() - t0
        hs.fini()

    pct = round(100.0 * walls["thread"] / walls["process"])
    bench = f"cpu_scaling:pymatmul:{len(domains)}dom"
    n = actions * len(domains)
    rows.append(PerfRow(bench, "thread_wall_s", walls["thread"], "s", n, "thread"))
    rows.append(
        PerfRow(bench, "process_wall_s", walls["process"], "s", n, "process")
    )
    rows.append(
        PerfRow(bench, "process_speedup_pct_of_thread", pct, "info", n, "process")
    )
    rows.append(
        PerfRow(
            bench,
            "process_speedup_shortfall_pct",
            max(0, 100 - pct),
            GATED_UNIT if gate else "info",
            n,
            "process",
        )
    )


def bench_transfer_overhead(
    rows: List[PerfRow], payloads: Sequence[int], reps: int
) -> None:
    """Virtual per-transfer cost vs payload size (sim, §III mirror)."""
    from repro.core.runtime import HStreams

    for payload in payloads:
        hs = HStreams(backend="sim", trace=False, transfer_elision=False)
        stream = hs.stream_create(domain=1)
        buf = hs.buffer_create(nbytes=payload)
        t0 = hs.elapsed()
        for _ in range(reps):
            hs.enqueue_xfer(stream, buf.all_out())
            hs.stream_synchronize(stream)
        per_xfer = (hs.elapsed() - t0) / reps
        hs.fini()
        rows.append(
            PerfRow(
                f"transfer_overhead:{payload}B",
                "virtual_xfer_s",
                per_xfer,
                "s",
                reps,
                "sim",
            )
        )


def bench_elision(rows: List[PerfRow], reps: int) -> None:
    """Redundant h2d transfers elided by the memory manager."""
    from repro.core.runtime import HStreams

    hs = HStreams(backend="sim", trace=False)
    stream = hs.stream_create(domain=1)
    buf = hs.buffer_create(nbytes=1 << 16)
    for _ in range(reps + 1):
        hs.enqueue_xfer(stream, buf.all_out())
    hs.thread_synchronize()
    elided = hs.metrics()["memory"]["elided_transfers"]
    hs.fini()
    # Elisions are savings: gate them as a *floor* by storing the count
    # of transfers that were NOT elided (lower stays better throughout).
    rows.append(
        PerfRow("elision", "elided_transfers", elided, "info", reps + 1, "sim")
    )
    rows.append(
        PerfRow(
            "elision",
            "unelided_transfers",
            (reps + 1) - elided,
            GATED_UNIT,
            reps + 1,
            "sim",
        )
    )


def bench_replay(rows: List[PerfRow], iters: int) -> None:
    """Replay-vs-re-enqueue admission cost on a pipelined RTM sequence.

    Mirrors the steady-state RTM DAG — two ranks, two halo slabs plus a
    bulk interior per step over field and velocity-model tensors, the
    edge halo exchanged d2h/h2d behind cross-stream waits, ping-pong
    parity, and ``PAIRS`` step pairs in flight between host syncs, as
    the async scheme pipelines them. Virtual kernel costs are large
    enough that nothing retires while an iteration is being admitted,
    so timing the enqueue loop or the ``replay()`` call measures pure
    admission cost at the same DAG size. Re-enqueue pays the full
    admission pipeline per action — operand construction, cost-model
    calls, dependence scans against the deepening window — while replay
    admits the captured template as one batch, with its recorded
    producers in place of the scans.

    Gates: replay must run zero dependence-scan comparisons
    (``replay_scan_comparisons``), the re-enqueue scan and edge counts
    pin the DAG's conflict structure and how much of it admission
    wires, and ``replay_admission_pct_over_5x_budget`` holds the >=5x
    acceptance bar (see the row comment below).
    """
    from repro.core.actions import XferDirection
    from repro.core.runtime import HStreams
    from repro.sim.kernels import KernelCost

    def stencil_cost(cur, vel, nxt):
        # Shape-derived cost arithmetic, as the RTM stencil cost model
        # does — re-enqueue pays this every iteration, a template pays
        # it once at capture. Large virtual flops keep every in-flight
        # action incomplete while the timed loops run: nothing retires
        # mid-admission, so the wall numbers are pure admission cost on
        # both paths.
        points = nxt.nbytes // 8
        return KernelCost(
            "stencil",
            flops=61.0e7 * points,
            size=float(cur.nbytes + vel.nbytes + nxt.nbytes),
        )

    hs = HStreams(backend="sim", trace=False)
    for name in ("halo", "bulk"):
        hs.register_kernel(name, fn=lambda *_args: None, cost_fn=stencil_cost)
    ranks = [hs.stream_create(domain=1, ncores=2) for _ in range(2)]
    fields = [[hs.buffer_create(nbytes=4096) for _ in range(2)] for _ in ranks]
    vels = [hs.buffer_create(nbytes=4096) for _ in ranks]
    # Slab layout per 4096-byte field: ghost | halo | interior | halo | ghost.
    GHOST_LO, HALO_LO, HALO_HI, GHOST_HI = 0, 64, 3968, 4032
    # Steps in flight between host syncs. Async RTM pipelines steps
    # back-to-back, so re-enqueue admits each one against the window
    # the previous steps left in flight — that deepening scan is the
    # per-iteration cost replay eliminates.
    PAIRS = 4

    def emit_steps() -> None:
        # Ping-pong step pairs, as the RTM propagator emits them under
        # the async dependence-based exchange scheme: halo slabs first,
        # the edge halo exported d2h, the neighbour's ghost filled h2d
        # behind a cross-stream wait, then the interior.
        for step in range(2 * PAIRS):
            p, q = step % 2, (step + 1) % 2
            edge_out = []
            for r, stream in enumerate(ranks):
                cur, nxt, vel = fields[r][p], fields[r][q], vels[r]
                hs.enqueue_compute(
                    stream,
                    "halo",
                    args=(
                        cur.tensor((24,), offset=GHOST_LO, mode=OperandMode.IN),
                        vel.tensor((8,), offset=HALO_LO, mode=OperandMode.IN),
                        nxt.tensor((8,), offset=HALO_LO, mode=OperandMode.OUT),
                    ),
                )
                hs.enqueue_compute(
                    stream,
                    "halo",
                    args=(
                        cur.tensor((24,), offset=3904, mode=OperandMode.IN),
                        vel.tensor((8,), offset=HALO_HI, mode=OperandMode.IN),
                        nxt.tensor((8,), offset=HALO_HI, mode=OperandMode.OUT),
                    ),
                )
                # Export the halo facing the neighbour (rank 0 sends its
                # high edge, rank 1 its low edge).
                send = HALO_HI if r == 0 else HALO_LO
                edge_out.append(
                    hs.enqueue_xfer(
                        stream,
                        nxt.range(send, 64, OperandMode.IN),
                        direction=XferDirection.SINK_TO_SRC,
                    )
                )
            for r, stream in enumerate(ranks):
                cur, nxt, vel = fields[r][p], fields[r][q], vels[r]
                hs.event_stream_wait(stream, [edge_out[1 - r]])
                ghost = GHOST_HI if r == 0 else GHOST_LO
                hs.enqueue_xfer(stream, nxt.range(ghost, 64, OperandMode.OUT))
                hs.enqueue_compute(
                    stream,
                    "bulk",
                    args=(
                        cur.tensor((512,), mode=OperandMode.IN),
                        vel.tensor((480,), offset=128, mode=OperandMode.IN),
                        nxt.tensor((480,), offset=128, mode=OperandMode.OUT),
                    ),
                )

    def counters() -> Tuple[int, int]:
        streams = hs.metrics()["streams"].values()
        return (
            sum(s["dep_scan_comparisons"] for s in streams),
            sum(s["dep_edges"] for s in streams),
        )

    with hs.capture_graph() as template:
        emit_steps()
    hs.thread_synchronize()

    # The two paths alternate iteration by iteration (the method
    # ``sanitizer_overhead`` uses): timed one loop after the other, a
    # clock step between the loops lands entirely on one side of the
    # gated ratio.
    enq_samples: List[float] = []
    rep_samples: List[float] = []
    enq_scans = enq_edges = rep_scans = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(iters):
            scans0, edges0 = counters()
            t0 = time.perf_counter()
            emit_steps()
            enq_samples.append(time.perf_counter() - t0)
            hs.thread_synchronize()
            scans1, edges1 = counters()
            enq_scans += scans1 - scans0
            enq_edges += edges1 - edges0

            t0 = time.perf_counter()
            hs.replay(template)
            rep_samples.append(time.perf_counter() - t0)
            hs.thread_synchronize()
            rep_scans += counters()[0] - scans1
    finally:
        if gc_was_enabled:
            gc.enable()
    hs.fini()

    enq_p50 = statistics.median(enq_samples)
    rep_p50 = statistics.median(rep_samples)
    # Ratio from the per-iteration floors: min-of-N measures admission
    # cost without scheduler/allocator noise, which a gated counter
    # cannot tolerate on shared CI runners.
    pct = round(100.0 * min(rep_samples) / min(enq_samples))
    bench = "replay_rtm_pair"
    rows.append(
        PerfRow(
            bench,
            "reenqueue_scan_comparisons_per_iter",
            enq_scans / iters,
            GATED_UNIT,
            iters,
            "sim",
        )
    )
    rows.append(
        PerfRow(
            bench,
            "reenqueue_dep_edges_per_iter",
            enq_edges / iters,
            GATED_UNIT,
            iters,
            "sim",
        )
    )
    rows.append(
        PerfRow(bench, "replay_scan_comparisons", rep_scans, GATED_UNIT, iters, "sim")
    )
    rows.append(
        PerfRow(
            bench,
            "replay_admission_pct_of_reenqueue",
            pct,
            "info",
            iters,
            "sim",
        )
    )
    # The >=5x acceptance bar, encoded as excess over a 20 % budget so
    # the committed baseline *is* the bar (0) rather than today's lucky
    # measurement: with the gate's +1 absolute slack the row fails CI
    # exactly when replay admission costs more than 21 % of re-enqueue.
    rows.append(
        PerfRow(
            bench,
            "replay_admission_pct_over_5x_budget",
            max(0, pct - 20),
            GATED_UNIT,
            iters,
            "sim",
        )
    )
    rows.append(PerfRow(bench, "reenqueue_iter_p50_s", enq_p50, "s", iters, "sim"))
    rows.append(PerfRow(bench, "replay_iter_p50_s", rep_p50, "s", iters, "sim"))


def bench_sanitizer_overhead(rows: List[PerfRow], measure: int) -> None:
    """Sanitizer-off passthrough cost on the enqueue hot path.

    The rtsan sanitizer (:mod:`repro.core.sync`) promises that disabled
    mode is structurally free: the factories hand back plain
    ``threading`` primitives and nothing is instrumented. This bench
    measures the same admission loop three ways:

    * ``off_before`` — a default runtime, before any sanitizer has
      existed in the process (the control);
    * ``on`` — a ``sanitize=True`` runtime (informational; the
      sanitizer is a debugging tool and may cost what it costs);
    * ``off_after`` — a default runtime constructed after the sanitized
      one closed. Identical code path to the control unless the
      sanitizer leaked instrumentation or its blocking-call patches.

    The control stays *alive* across the sanitized runtime's lifetime
    and the two off runtimes are sampled in interleaved batches: a
    phase-ordered before/after comparison conflates sanitizer residue
    with in-process allocator aging (repeated off-only runtimes drift
    2-7 % per position with no sanitizer involved at all), while
    interleaving gives both runtimes the identical process state so
    only true residue separates them.

    Even interleaved, per-instance spread on the ~20 us admission floor
    is +/-7 % (thread placement, allocation addresses), so the gated
    row holds the off-after/off-before floor ratio to a +15 % budget —
    comfortably above measurement resolution, far below the cost of a
    real leak (instrumented classes or blocking-call patches left
    behind cost tens of percent). The structural <2 % claim itself is
    enforced exactly by the identity tests in tests/core/test_sync.py:
    disabled-mode factories return plain ``threading`` primitives.
    """
    import threading

    from repro.core.runtime import HStreams

    def prep(sanitize: bool):
        gate = threading.Event()
        hs = HStreams(backend="thread", trace=False, sanitize=sanitize)
        hs.register_kernel("block", fn=lambda *_args: gate.wait())
        stream = hs.stream_create(domain=0, ncores=1)
        operands = []
        for _ in range(measure):
            buf = hs.buffer_create(nbytes=64)
            operands.append(buf.range(0, 64, OperandMode.OUT))
        return hs, stream, operands, gate

    def sample(hs, stream, operands, samples: List[float]) -> None:
        for op in operands:
            t0 = time.perf_counter()
            hs.enqueue_compute(stream, "block", operands=(op,))
            samples.append(time.perf_counter() - t0)

    hs_a = stream_a = ops_a = gate_a = None
    hs_b = gate_b = None
    gc_was_enabled = gc.isenabled()
    try:
        # Control runtime: built before any sanitizer exists, measured
        # later, interleaved with the post-sanitizer runtime.
        hs_a, stream_a, ops_a, gate_a = prep(False)

        # The sanitized runtime's full lifecycle happens in between.
        hs_on, stream_on, ops_on, gate_on = prep(True)
        try:
            gc.disable()
            on_samples: List[float] = []
            sample(hs_on, stream_on, ops_on, on_samples)
        finally:
            if gc_was_enabled:
                gc.enable()
            gate_on.set()
            hs_on.fini()

        hs_b, stream_b, ops_b, gate_b = prep(False)

        gc.disable()
        try:
            a_samples: List[float] = []
            b_samples: List[float] = []
            chunk = max(1, measure // 5)
            for i in range(0, measure, chunk):
                sample(hs_a, stream_a, ops_a[i : i + chunk], a_samples)
                sample(hs_b, stream_b, ops_b[i : i + chunk], b_samples)
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        if gate_a is not None:
            gate_a.set()
        if gate_b is not None:
            gate_b.set()
        if hs_a is not None:
            hs_a.fini()
        if hs_b is not None:
            hs_b.fini()

    off_before_min, off_before_p50 = min(a_samples), statistics.median(a_samples)
    off_after_min, off_after_p50 = min(b_samples), statistics.median(b_samples)
    on_p50 = statistics.median(on_samples)

    pct = round(100.0 * off_after_min / off_before_min)
    bench = "sanitizer_overhead"
    rows.append(
        PerfRow(bench, "off_before_enqueue_p50_s", off_before_p50, "s", measure, "thread")
    )
    rows.append(PerfRow(bench, "on_enqueue_p50_s", on_p50, "s", measure, "thread"))
    rows.append(
        PerfRow(bench, "off_after_enqueue_p50_s", off_after_p50, "s", measure, "thread")
    )
    rows.append(
        PerfRow(bench, "off_after_pct_of_off_before", pct, "info", measure, "thread")
    )
    # Gate only at full sample counts: the ratio-of-minima is stable at
    # n=100 but quick/smoke runs (n=30) are load-noise; emit those as
    # informational so smoke gating stays deterministic.
    gated_unit = GATED_UNIT if measure >= 100 else "info"
    rows.append(
        PerfRow(
            bench,
            "sanitizer_off_admission_pct_over_budget",
            max(0, pct - 115),
            gated_unit,
            measure,
            "thread",
        )
    )


def bench_collectives(rows: List[PerfRow], nnodes: int, nbytes: int) -> None:
    """Planned-collective schedules on the contention-aware cluster fabric.

    One payload fans out from the host to ``nnodes`` simulated fabric
    domains, once as the serial host-rooted N-xfer loop and once as the
    pipelined peer-forwarding multicast chain. Buffer instances are
    pre-created so the virtual times measure pure fabric occupancy, not
    host-side allocation. Virtual time is deterministic, so the
    multicast/serial ratio gates as a counter:
    ``multicast_pct_over_half_serial_budget`` is the excess over the
    50 % acceptance bar — the committed baseline is the bar itself (0),
    and with the gate's +1 absolute slack the row fails CI exactly when
    multicast costs more than 51 % of serial.

    The second gated row captures one multicast broadcast in a
    ``capture_graph()`` scope and replays it:
    ``collective_replay_scan_comparisons`` must stay at zero because
    the planner resolves external dependences with one window scan per
    stream at *plan* time and admits chunks through
    ``enqueue_precomputed`` — replay re-admits the recorded template
    with no dependence scans at all.
    """
    from repro.core.runtime import HStreams
    from repro.sim.platforms import make_cluster_platform

    def broadcast_time(schedule: str) -> float:
        hs = HStreams(
            platform=make_cluster_platform(nnodes=nnodes),
            backend="sim",
            trace=False,
        )
        doms = list(range(1, nnodes + 1))
        buf = hs.buffer_create(nbytes=nbytes, domains=doms)
        hs.thread_synchronize()
        t0 = hs.elapsed()
        hs.broadcast(buf, doms, schedule=schedule)
        hs.thread_synchronize()
        elapsed = hs.elapsed() - t0
        hs.fini()
        return elapsed

    t_serial = broadcast_time("serial")
    t_multicast = broadcast_time("multicast")
    pct = round(100.0 * t_multicast / t_serial)
    bench = f"collectives:bcast:{nnodes}dom"
    rows.append(PerfRow(bench, "serial_virtual_s", t_serial, "s", nnodes, "sim"))
    rows.append(
        PerfRow(bench, "multicast_virtual_s", t_multicast, "s", nnodes, "sim")
    )
    rows.append(PerfRow(bench, "multicast_pct_of_serial", pct, "info", nnodes, "sim"))
    rows.append(
        PerfRow(
            bench,
            "multicast_pct_over_half_serial_budget",
            max(0, pct - 50),
            GATED_UNIT,
            nnodes,
            "sim",
        )
    )

    hs = HStreams(
        platform=make_cluster_platform(nnodes=nnodes), backend="sim", trace=False
    )
    doms = list(range(1, nnodes + 1))
    buf = hs.buffer_create(nbytes=nbytes, domains=doms)
    # Warm-up outside the capture scope: the collective's internal
    # streams must already exist, since stream creation is not a
    # replayable action.
    hs.broadcast(buf, doms, schedule="multicast")
    hs.thread_synchronize()

    def scan_comparisons() -> int:
        return sum(
            s["dep_scan_comparisons"] for s in hs.metrics()["streams"].values()
        )

    with hs.capture_graph() as template:
        hs.broadcast(buf, doms, schedule="multicast")
    hs.thread_synchronize()
    scans0 = scan_comparisons()
    hs.replay(template)
    hs.thread_synchronize()
    rep_scans = scan_comparisons() - scans0
    hs.fini()
    rows.append(
        PerfRow(
            bench,
            "collective_replay_scan_comparisons",
            rep_scans,
            GATED_UNIT,
            1,
            "sim",
        )
    )


def run_suite(
    quick: bool = False,
    depths: Optional[Sequence[int]] = None,
    probes: Optional[int] = None,
) -> List[PerfRow]:
    """Run every microbench; returns the result rows."""
    if depths is None:
        depths = _QUICK_DEPTHS if quick else _DEPTHS
    if probes is None:
        probes = 20 if quick else 50
    measure = 30 if quick else 100
    count = 200 if quick else 1000
    reps = 2 if quick else 3
    payloads = (4 << 10, 64 << 10) if quick else (4 << 10, 64 << 10, 1 << 20, 8 << 20)
    rows: List[PerfRow] = []
    bench_enqueue_scan(rows, depths, probes)
    bench_enqueue_admission(rows, depths, measure)
    bench_dispatch_throughput(rows, count)
    bench_completion_allocations(rows, 512)
    bench_live_threads(rows, 1000 if quick else 10000)
    bench_cpu_scaling(
        rows, reps=4 if quick else 12, actions=3 if quick else 6, gate=not quick
    )
    bench_transfer_overhead(rows, payloads, reps)
    bench_elision(rows, reps)
    bench_replay(rows, 10 if quick else 30)
    bench_sanitizer_overhead(rows, measure)
    bench_collectives(rows, nnodes=16, nbytes=4 << 20 if quick else 16 << 20)
    return rows


# -- reporting & gating -------------------------------------------------------


def rows_to_json(rows: Iterable[PerfRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"


def rows_from_json(text: str) -> List[PerfRow]:
    return [PerfRow(**entry) for entry in json.loads(text)]


def format_rows(rows: Iterable[PerfRow]) -> str:
    lines = [
        f"{'bench':44} {'metric':30} {'value':>14} {'unit':>6} {'n':>5} backend"
    ]
    for r in rows:
        value = f"{r.value:.6g}"
        lines.append(
            f"{r.bench:44} {r.metric:30} {value:>14} {r.unit:>6} {r.n:>5} {r.backend}"
        )
    return "\n".join(lines)


def check_rows(
    current: Iterable[PerfRow],
    baseline: Iterable[PerfRow],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Compare gated counters against a baseline; returns the failures.

    All gated counters are lower-is-better. A current value may exceed
    its baseline by ``tolerance`` (relative) plus one absolute count of
    slack; allocator-dependent metrics get at least 2x. Gated baseline
    rows missing from the current run fail too — a silently vanished
    counter is how a harness rots. A row the current run *demoted to
    informational* is skipped instead: the emitter downgrades a unit
    exactly when the measurement cannot be made at gating fidelity
    (quick/smoke sample counts, or hardware where the property cannot
    hold — e.g. multi-core scaling on a single CPU), and that call
    belongs to the emitter, not the baseline.
    """
    current_by_key: Dict[Tuple[str, str, str], PerfRow] = {
        (r.bench, r.metric, r.backend): r for r in current
    }
    problems: List[str] = []
    for base in baseline:
        if base.unit != GATED_UNIT:
            continue
        key = (base.bench, base.metric, base.backend)
        row = current_by_key.get(key)
        if row is None:
            problems.append(
                f"{base.bench}/{base.metric}: gated counter missing from current run"
            )
            continue
        if row.unit != GATED_UNIT:
            continue
        tol = tolerance
        if _ALLOC_METRIC in base.metric:
            tol = max(tolerance, 1.0)
        limit = base.value * (1.0 + tol) + 1.0
        if row.value > limit:
            problems.append(
                f"{base.bench}/{base.metric}: {row.value:.6g} exceeds baseline "
                f"{base.value:.6g} by more than {tol:.0%} (+1) "
                f"[limit {limit:.6g}]"
            )
    return problems


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Hot-path enqueue/dispatch microbenchmarks "
        "(BENCH_perf.json emitter + regression gate).",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small depths/counts (CI smoke)"
    )
    parser.add_argument(
        "--depths",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=None,
        help="comma-separated window depths (default 10,100,1000,5000)",
    )
    parser.add_argument(
        "--probes", type=int, default=None, help="deps_for probes per depth"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write rows as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare gated counters against a baseline JSON file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative allowance for gated counters (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)

    rows = run_suite(quick=args.quick, depths=args.depths, probes=args.probes)

    if args.json == "-":
        sys.stdout.write(rows_to_json(rows))
    else:
        print(format_rows(rows))
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(rows_to_json(rows))
            print(f"\nwrote {args.json}")

    if args.check:
        with open(args.check) as fh:
            baseline = rows_from_json(fh.read())
        problems = check_rows(rows, baseline, tolerance=args.tolerance)
        if problems:
            print(
                f"\nPERF GATE: {len(problems)} regression(s) vs {args.check}:",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        gated = sum(1 for r in rows if r.unit == GATED_UNIT)
        print(f"\nperf gate ok: {gated} gated counter(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
