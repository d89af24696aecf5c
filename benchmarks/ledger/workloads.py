"""The six ledger workloads.

Each class builds its inputs from the seed, drives the program in a
closed loop (every caller in this system waits for its reply: a host
thread at a sync, a JSON-lines connection), checks every result, and
says which processes are the program under test. Why each exists is in
BENCHMARK.json (``why``) and at length in the README.

A *sample* is ``(start, seconds, cpu_seconds, ok)`` for one op; the
timed region is exactly the op — inputs are written and results checked
outside it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import harness
import kernels
import tracing
from repro import HStreams, XferDirection, make_platform
from repro.apps.rtm.propagator import run_rtm
from repro.linalg.cholesky import hetero_cholesky

Sample = Tuple[float, float, float, bool]


class Workload:
    """What the harness needs from a workload."""

    name = ""
    #: What one op is, for the printed table.
    op = ""
    #: Concurrent closed-loop callers driving the program.
    clients = 1
    #: False on the sim backend: lifecycle clocks are virtual seconds.
    real_time = True
    #: Useful floating-point operations in one op (0 = not a numeric op).
    flops_per_op = 0.0

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False,
                 trace_out: Optional[str] = None):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        self.trace_out = trace_out

    def setup(self) -> None:
        """Build everything and warm up; the next call is a timed op."""
        raise NotImplementedError

    def drive(self, seconds: float, traced: bool = False) -> List[Sample]:
        """Run ops back to back for ``seconds``; ``traced`` records spans."""
        raise NotImplementedError

    def busy_s(self, samples: List[Sample]) -> float:
        """Seconds the program was being driven while ``samples`` ran."""
        return sum(s[1] for s in samples)

    def pids(self) -> List[int]:
        """The process tree under test (thread count, peak RSS)."""
        return [os.getpid()]

    def child_pids(self) -> List[int]:
        """Processes the workload started (CPU via /proc, leak check)."""
        return []

    def finish(self) -> List[str]:
        """Drain, then return end-of-run correctness problems."""
        return []

    def trace_result(self) -> Dict[str, Any]:
        """Of the traced slices: ``summary`` (spans folded by name) and
        ``counters`` (their growth), plus ``client_p50_s`` and ``wall_s``
        where the workload measures them itself. Call after
        :meth:`finish`."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError


class SerialWorkload(Workload):
    """One host thread issuing ops; the harness process is the program."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = tracing.Recorder() if self.trace else None
        self.window = tracing.CounterWindow()

    def setup(self) -> None:
        """Subclasses extend: wrappers go in before anything is built."""
        if self.recorder is not None:
            self.recorder.install()

    def prepare(self) -> None:
        """Untimed: write the next op's inputs."""

    def run_op(self) -> Any:
        raise NotImplementedError

    def verify(self, result: Any) -> bool:
        """Untimed: check one op's result."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Running counter totals; differenced around traced slices."""
        raise NotImplementedError

    def recycle(self) -> None:
        """Untimed: release what the finished op left behind."""

    def warm_up(self, ops: int) -> None:
        for _ in range(ops):
            self.prepare()
            if not self.verify(self.run_op()):
                raise RuntimeError(f"{self.name}: wrong result during warm-up")
            self.recycle()

    def drive(self, seconds: float, traced: bool = False) -> List[Sample]:
        rec = self.recorder if traced else None
        if traced:
            self.window.open(self.counters())
        clock, cpu = time.perf_counter, time.process_time
        samples: List[Sample] = []
        deadline = clock() + seconds
        while True:
            self.prepare()
            if rec is not None:
                rec.op += 1
                rec.enabled = True
            t0, c0 = clock(), cpu()
            result = self.run_op()
            c1, t1 = cpu(), clock()
            if rec is not None:
                rec.enabled = False
            samples.append((t0, t1 - t0, c1 - c0, self.verify(result)))
            result = None
            self.recycle()
            if t1 >= deadline:
                break
        if traced:
            self.window.close(self.counters())
        return samples

    def trace_result(self):
        summary = tracing.summarize(self.recorder, threading.main_thread().ident)
        if self.trace_out:
            harness.write_json(
                self.trace_out, tracing.chrome_trace(self.recorder, os.getpid()),
                compact=True,
            )
        return {"summary": summary, "counters": dict(self.window.total)}

    def teardown(self) -> None:
        if self.recorder is not None:
            self.recorder.uninstall()


# -- waves of tile pipelines (tiles_thread, offload_process) ------------------


class WaveWorkload(SerialWorkload):
    """op = 16 pipelines (h2d 4 KiB -> kernel -> d2h) closed by one sync.

    Each slot owns its buffer, so pipelines conflict with nothing but
    themselves. Between waves the host overwrites every slot's input
    and tells the memory manager, so each h2d moves bytes instead of
    being elided as a repeat.
    """

    op = "wave of 16 pipelines"
    SLOTS = 16
    N = 512
    backend = "thread"
    cards = 1
    nstreams = 1
    kernel = staticmethod(kernels.axpy)
    warmup_waves = 30

    def setup(self) -> None:
        super().setup()
        rng = random.Random(self.seed)
        self.a = rng.uniform(0.5, 1.5)
        self.b = rng.uniform(-1.0, 1.0)
        self.base = [rng.random() for _ in range(self.SLOTS)]
        self.wave = 0
        self.hs = HStreams(
            platform=make_platform("HSW", self.cards), backend=self.backend, trace=False
        )
        self.hs.register_kernel("k", fn=self.kernel)
        self.streams = [
            self.hs.stream_create(domain=1 + i % self.cards, ncores=1)
            for i in range(self.nstreams)
        ]
        self.arrays = [np.zeros(self.N) for _ in range(self.SLOTS)]
        self.bufs = [self.hs.wrap(arr) for arr in self.arrays]
        self.operands = [buf.tensor((self.N,)) for buf in self.bufs]
        self.warm_up(3 if self.smoke else self.warmup_waves)

    def prepare(self) -> None:
        self.wave += 1
        note_write = self.hs.memory.note_external_host_write
        for arr, buf, base in zip(self.arrays, self.bufs, self.base):
            arr.fill(base + self.wave)
            note_write(buf)

    def run_op(self) -> None:
        hs, streams, a, b = self.hs, self.streams, self.a, self.b
        n = len(streams)
        for i, (buf, operand) in enumerate(zip(self.bufs, self.operands)):
            stream = streams[i % n]
            hs.enqueue_xfer(stream, buf)
            hs.enqueue_compute(stream, "k", args=(operand, a, b))
            hs.enqueue_xfer(stream, buf, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()

    def expected(self, value: float) -> np.ndarray:
        """What one slot filled with ``value`` must read after the wave."""
        raise NotImplementedError

    def verify(self, _result) -> bool:
        return all(
            np.array_equal(arr, self.expected(base + self.wave))
            for arr, base in zip(self.arrays, self.base)
        )

    def counters(self) -> Dict[str, float]:
        return tracing.runtime_counters(self.hs)

    def finish(self) -> List[str]:
        lost = self.counters()["not_completed"]
        return [f"{lost} action(s) failed or were cancelled"] if lost else []

    def teardown(self) -> None:
        super().teardown()
        self.hs.fini()
        del self.hs, self.streams, self.bufs, self.operands
        gc.collect()


class TilesThread(WaveWorkload):
    name = "tiles_thread"
    cards = 2
    nstreams = 4

    def expected(self, value: float) -> np.ndarray:
        return np.full(self.N, value * self.a + self.b)


class OffloadProcess(WaveWorkload):
    name = "offload_process"
    backend = "process"
    nstreams = 2
    kernel = staticmethod(kernels.pysum)

    def expected(self, value: float) -> np.ndarray:
        out = np.full(self.N, value)
        kernels.pysum(out, self.a, self.b)
        return out

    def setup(self) -> None:
        super().setup()
        # Cached: the thread sampler asks every 50 ms, and metrics()
        # takes the scheduler lock.
        workers = self.hs.metrics()["backend"]["workers"]
        self._workers = [w["pid"] for w in workers.values()]

    def child_pids(self) -> List[int]:
        return self._workers

    def pids(self) -> List[int]:
        return [os.getpid(), *self.child_pids()]

    def finish(self) -> List[str]:
        problems = super().finish()
        m = self.hs.metrics()
        computes = m["by_kind"]["compute"]["count"]
        backend = m["backend"]
        if backend["remote_actions"] != computes or backend["fallback_actions"]:
            problems.append(
                f"{computes} computes but {backend['remote_actions']} ran in the "
                f"worker ({backend['fallback_actions']} fell back to the host)"
            )
        return problems


# -- fresh runtime per op (cholesky_thread, rtm_sim_*) ------------------------


class FreshRuntimeWorkload(SerialWorkload):
    """op = build a runtime, run one whole program on it, result in hand.

    ``fini()`` happens in :meth:`verify` and the dead runtime is
    collected in :meth:`recycle` (its buffers and actions reference each
    other, so only the cycle collector frees them), both untimed —
    otherwise tens of MiB of tiles pile up until the collector happens
    to run, and when that is decides how slow the *next* op's
    allocations are.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Counters of every runtime so far, summed as each one dies.
        self.totals = tracing.CounterWindow()

    def check(self, result: Any) -> bool:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return dict(self.totals.total)

    def verify(self, pair) -> bool:
        hs, result = pair
        counters = tracing.runtime_counters(hs)
        self.totals.add(counters)
        hs.fini()
        return self.check(result) and counters["not_completed"] == 0

    def recycle(self) -> None:
        gc.collect()


class CholeskyThread(FreshRuntimeWorkload):
    name = "cholesky_thread"
    op = "one factorization"
    TOLERANCE = 1e-8

    def setup(self) -> None:
        super().setup()
        self.n, self.tile = (512, 128) if self.smoke else (1792, 256)
        rng = np.random.default_rng(self.seed)
        # Symmetric with a dominant diagonal: SPD by Gershgorin, and
        # O(n^2) to build where M @ M.T would cost as much as the op.
        r = rng.random((self.n, self.n))
        self.matrix = (r + r.T) * 0.5
        self.matrix[np.diag_indices(self.n)] = self.n
        self.reference = np.linalg.cholesky(self.matrix)
        self.flops_per_op = self.n**3 / 3.0
        self.warm_up(1 if self.smoke else 2)

    def run_op(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="thread", trace=False)
        result = hetero_cholesky(
            hs, n=self.n, tile=self.tile, data=self.matrix,
            streams_per_domain=2, host_streams=2,
        )
        return hs, result

    def check(self, result) -> bool:
        return float(np.max(np.abs(result.L - self.reference))) < self.TOLERANCE

    def teardown(self) -> None:
        super().teardown()
        del self.matrix, self.reference
        gc.collect()


class RtmSim(FreshRuntimeWorkload):
    """The paper-figure RTM run on the sim backend.

    The check is the virtual end time, bit for bit: the cost models are
    pure float arithmetic, so any change to what is admitted, or in
    what order the engine runs it, moves this number.
    """

    op = "one propagation run"
    real_time = False
    replay = False
    GRID = (2048, 512, 512)
    #: (steps, replay) -> virtual ``elapsed_s`` at the seed commit.
    PINNED = {
        (100, False): 2.8214233386516803,
        (100, True): 2.7503127589776226,
        (10, False): 0.29094724318928455,
        (10, True): 0.2815099102264502,
    }

    def setup(self) -> None:
        super().setup()
        self.steps = 10 if self.smoke else 100
        # A kernel scalar: the cost model ignores it, as it must.
        self.vdt2 = random.Random(self.seed).uniform(0.01, 0.09)
        full, self.steps = self.steps, 10
        self.warm_up(1)
        self.steps = full

    def run_op(self):
        hs = HStreams(platform=make_platform("HSW", 4), backend="sim", trace=False)
        result = run_rtm(
            hs, grid=self.GRID, nranks=4, scheme="async", steps=self.steps,
            replay=self.replay, vdt2=self.vdt2,
        )
        return hs, result

    def check(self, result) -> bool:
        return result.elapsed_s == self.PINNED[(self.steps, self.replay)]


class RtmSimEnqueue(RtmSim):
    name = "rtm_sim_enqueue"


class RtmSimReplay(RtmSim):
    name = "rtm_sim_replay"
    replay = True


# -- the service over its real transport (service_unix) -----------------------


class _Connection:
    """One JSON-lines client connection cycling a tenant's sessions."""

    def __init__(self, path: str, tenant: str, sessions: int, submits: int,
                 rng: random.Random, open_s: List[float], close_s: List[float]):
        self.tenant = tenant
        self.submits = submits
        self.rng = rng
        #: Open/close round trips of traced slices, shared by both
        #: connections (``list.append`` is atomic).
        self.open_s, self.close_s = open_s, close_s
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30.0)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")
        self.time_lifecycle = False
        self.bad_replies = 0
        # [session id, submits so far]; staggered so closes spread out
        # instead of arriving in bursts of `sessions`.
        self.ring = [[self._open(), 1 + i % (submits - 1)] for i in range(sessions)]
        rng.shuffle(self.ring)
        self.pos = 0

    def request(self, **req) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(req).encode() + b"\n")
        return json.loads(self.reader.readline())

    def _open(self) -> int:
        t0 = time.perf_counter()
        reply = self.request(op="open", tenant=self.tenant)
        if self.time_lifecycle:
            self.open_s.append(time.perf_counter() - t0)
        if not reply.get("ok"):
            self.bad_replies += 1
        return reply["session"]

    def _close(self, session: int) -> None:
        t0 = time.perf_counter()
        reply = self.request(op="close", session=session)
        if self.time_lifecycle:
            self.close_s.append(time.perf_counter() - t0)
        if not reply.get("ok"):
            self.bad_replies += 1

    def run(self, seconds: float, out: List[Sample]) -> None:
        clock = time.perf_counter
        deadline = clock() + seconds
        ring, rng = self.ring, self.rng
        while True:
            entry = ring[self.pos]
            req = json.dumps(
                {"op": "submit", "session": entry[0], "kernel": "noop",
                 "args": [rng.random()]}
            ).encode() + b"\n"
            t0 = clock()
            self.sock.sendall(req)
            reply = json.loads(self.reader.readline())
            t1 = clock()
            out.append((t0, t1 - t0, 0.0, reply.get("ok") is True))
            entry[1] += 1
            if entry[1] >= self.submits:
                # Replace the finished session and give the new one its
                # first submit next, so every live session has run work
                # (a stream's worker thread only exists once it has).
                self._close(entry[0])
                entry[0], entry[1] = self._open(), 0
            else:
                self.pos = (self.pos + 1) % len(ring)
            if t1 >= deadline:
                break

    def shutdown(self) -> None:
        for session, _ in self.ring:
            self._close(session)
        self.ring = []
        self.reader.close()
        self.sock.close()


class ServiceUnix(Workload):
    """``StreamService`` behind ``serve_unix`` in a child process.

    Two connections, one tenant each, each keeping 64 sessions live and
    cycling them: open, 8 submits of a no-op kernel, close. A connection
    is answered in order, so at most two requests are in flight and
    admission never queues; what is measured is the request path, stream
    churn, and a thread per live session.
    """

    name = "service_unix"
    op = "one submit request"
    clients = 2
    SUBMITS = 8

    def setup(self) -> None:
        self.sessions = 8 if self.smoke else 64
        self.conns: List[_Connection] = []
        self.refused = 0
        harness.RUN_DIR.mkdir(exist_ok=True)
        tag = f"svc-{os.getpid()}"
        self.socket_path = harness.RUN_DIR / f"{tag}.sock"
        self.report_path = harness.RUN_DIR / f"{tag}.json"
        # AF_UNIX paths are capped near 108 bytes; the checkout may sit
        # anywhere, so bind and connect relative to the shared cwd.
        rel = os.path.relpath(self.socket_path)
        if len(rel) > 100:
            raise RuntimeError(f"socket path too long for AF_UNIX: {rel}")
        cmd = [
            sys.executable, str(harness.LEDGER_DIR / "service_child.py"),
            "--socket", rel, "--report", str(self.report_path),
            "--trace", "1" if self.trace else "0",
        ]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        if not ready or self.proc.stdout.readline().strip() != b"ready":
            self.teardown()
            raise RuntimeError("service child did not come up")
        self.report: Dict[str, Any] = {}
        #: Client-side round trips of the traced slices, by request.
        self.traced_rtt: Dict[str, List[float]] = {"submit": [], "open": [], "close": []}
        self.conns = [
            _Connection(rel, tenant, self.sessions, self.SUBMITS,
                        random.Random(f"{self.seed}/{tenant}"),
                        self.traced_rtt["open"], self.traced_rtt["close"])
            for tenant in ("tenant-a", "tenant-b")
        ]
        warm = self.drive(0.1 if self.smoke else 0.5)
        if not all(s[3] for s in warm):
            raise RuntimeError("service_unix: failed reply during warm-up")

    def drive(self, seconds: float, traced: bool = False) -> List[Sample]:
        if traced:
            self._signal(signal.SIGUSR1)
        outs: List[List[Sample]] = [[] for _ in self.conns]
        threads = [
            threading.Thread(target=conn.run, args=(seconds, out), name="ledger-client")
            for conn, out in zip(self.conns, outs)
        ]
        for conn in self.conns:
            conn.time_lifecycle = traced
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for conn in self.conns:
            conn.time_lifecycle = False
        if traced:
            self._signal(signal.SIGUSR2)
        samples = sorted(s for out in outs for s in out)
        if traced:
            self.traced_rtt["submit"].extend(s[1] for s in samples)
        return samples

    def _signal(self, sig: int) -> None:
        self.proc.send_signal(sig)
        # The child handles it on its next loop turn; no reply channel,
        # so give it a moment before (or after) the slice's requests.
        time.sleep(0.02)

    def busy_s(self, samples: List[Sample]) -> float:
        # Opens and closes ride between the submits, so the connections
        # are busy from the first send to the last reply, not just
        # while the sampled submits were in flight.
        return max(s[0] + s[1] for s in samples) - samples[0][0]

    def pids(self) -> List[int]:
        return [self.proc.pid]

    child_pids = pids

    def finish(self) -> List[str]:
        problems = []
        self._stop_child()
        if self.refused:
            problems.append(f"{self.refused} open/close request(s) were refused")
        if self.proc.returncode != 0:
            problems.append(f"service child exited with {self.proc.returncode}")
            return problems
        svc, runtime = self.report["service"], self.report["runtime"]
        if svc["inflight"] or svc["sessions"]:
            problems.append(
                f"after drain: inflight={svc['inflight']} sessions={svc['sessions']}"
            )
        if runtime["not_completed"]:
            problems.append(f"{runtime['not_completed']} action(s) failed server-side")
        return problems

    def _stop_child(self) -> None:
        for conn in self.conns:
            conn.shutdown()
            self.refused += conn.bad_replies
        self.conns = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.report_path.exists():
            self.report = json.loads(self.report_path.read_text())

    def trace_result(self):
        client = {
            req: harness.quartiles(durs)[1] if durs else 0.0
            for req, durs in self.traced_rtt.items()
        }
        return {
            "summary": self.report["summary"],
            "counters": self.report["counters"],
            "client_p50_s": client,
            "wall_s": self.report["traced_wall_s"],
        }

    def teardown(self) -> None:
        if self.conns or self.proc.poll() is None:
            self._stop_child()
        for path in (self.socket_path, self.report_path):
            if path.exists():
                path.unlink()
        if harness.RUN_DIR.is_dir() and not any(harness.RUN_DIR.iterdir()):
            harness.RUN_DIR.rmdir()


ALL = (
    TilesThread,
    CholeskyThread,
    RtmSimEnqueue,
    RtmSimReplay,
    OffloadProcess,
    ServiceUnix,
)
BY_NAME = {cls.name: cls for cls in ALL}
