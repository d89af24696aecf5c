"""Spans recorded from outside the program, and the ledger folded from them.

The program under test carries no layer timing of its own, so this
module rebinds timing wrappers around the public entry point of each
layer (``TARGETS``) for the duration of a ``--trace 1`` run. A span is
``[name, start, end, parent, thread, op, self]``; spans live in memory
and are only summarised (or dumped as a Chrome trace) when the run
ends. A layer's *self* time is its span minus the part its child spans
on the same thread cover, so one thread's self times add up to the
time that thread spent inside wrapped code — and what is left of the
wall time is ``ledger.unattributed_pct``.

The parent of a span is tracked in a ``ContextVar``: worker threads
each get their own context (like a thread-local), and every asyncio
task gets its own too, so coroutines of two connections interleaving
on one loop thread do not adopt each other's children.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, THREAD, OP, SELF = range(7)
#: Kernel spans carry an eighth field: thread CPU seconds inside the call.
CPU = 7

#: (module, class, method, span name). Layer = the module that owns the
#: code, which is why ProcessBackend's inherited hand-off shows up as
#: ``thread_backend.*``.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.runtime", "HStreams", "enqueue_compute", "runtime.enqueue_compute"),
    ("repro.core.runtime", "HStreams", "enqueue_xfer", "runtime.enqueue_xfer"),
    ("repro.core.runtime", "HStreams", "event_stream_wait", "runtime.event_stream_wait"),
    ("repro.core.runtime", "HStreams", "thread_synchronize", "runtime.thread_synchronize"),
    ("repro.core.runtime", "HStreams", "stream_create", "runtime.stream_create"),
    ("repro.core.runtime", "HStreams", "stream_destroy", "runtime.stream_destroy"),
    ("repro.core.runtime", "HStreams", "replay", "runtime.replay"),
    ("repro.core.scheduler", "Scheduler", "enqueue", "scheduler.enqueue"),
    ("repro.core.scheduler", "Scheduler", "enqueue_precomputed", "scheduler.enqueue_precomputed"),
    ("repro.core.scheduler", "Scheduler", "admit_instance", "scheduler.admit_instance"),
    ("repro.core.scheduler", "Scheduler", "on_complete", "scheduler.on_complete"),
    ("repro.core.dependences", "StreamWindow", "deps_for", "dependences.deps_for"),
    ("repro.core.memory", "MemoryManager", "on_enqueue", "memory.on_enqueue"),
    ("repro.core.memory", "MemoryManager", "on_action_complete", "memory.on_action_complete"),
    ("repro.core.memory", "MemoryManager", "instantiate", "memory.instantiate"),
    ("repro.core.thread_backend", "ThreadBackend", "execute", "thread_backend.execute"),
    ("repro.core.thread_backend", "ThreadBackend", "wait_all", "thread_backend.wait_all"),
    ("repro.core.thread_backend", "ThreadBackend", "wait_events", "thread_backend.wait_events"),
    ("repro.core.sim_backend", "SimBackend", "execute", "sim_backend.execute"),
    ("repro.core.sim_backend", "SimBackend", "wait_all", "sim_backend.wait_all"),
    ("repro.core.sim_backend", "SimBackend", "wait_events", "sim_backend.wait_events"),
    ("repro.core.replay", "GraphTemplate", "instantiate", "replay.instantiate"),
    ("repro.service.admission", "AdmissionController", "submit", "service_admission.submit"),
    ("repro.service.admission", "AdmissionController", "release", "service_admission.release"),
    ("repro.service.session", "Session", "submit", "service_session.submit"),
    ("repro.service.session", "Session", "close", "service_session.close"),
    ("repro.service.server", "StreamService", "session", "service_server.session"),
)

_parent: ContextVar[Optional[list]] = ContextVar("ledger_parent", default=None)


class Recorder:
    """In-memory span store. One per process; wrappers consult it."""

    def __init__(self, bridge: bool = False):
        #: Wrappers record only while this is set; the harness flips it
        #: between untraced and traced slices of one run.
        self.enabled = False
        self.spans: List[list] = []
        #: Intervals that are not call spans: ``(name, start, end)``.
        self.flows: List[Tuple[str, float, float]] = []
        #: Identifier shared by the spans of one op.
        self.op = 0
        #: Service runs: when each action entered ``on_complete``, so the
        #: hop from the worker thread to the resolved future can be timed.
        self.bridge = bridge
        self.completed_at: Dict[int, float] = {}
        self._originals: List[Tuple[type, str, Any]] = []

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        get_ident = threading.get_ident
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, _parent.get(), get_ident(), self.op, 0.0]
            spans.append(span)
            token = _parent.set(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                _parent.reset(token)

        return traced

    def _wrap_kernel(self, fn: Callable) -> Callable:
        """A kernel call: a span like any other, plus its thread CPU time.

        Wall time inside a kernel (like the runtime's own ``exec_s``,
        RUNNING to terminal) is mostly waiting for the interpreter lock
        on a GIL-bound run — 200 us for an ``axpy`` that computes for
        5. What the kernels layer *costs* is the CPU it burns.
        """
        clock, cpu = time.perf_counter, time.thread_time
        get_ident = threading.get_ident
        spans = self.spans

        def kernel(*args):
            if not self.enabled:
                return fn(*args)
            span = ["kernels.exec", 0.0, 0.0, _parent.get(), get_ident(), self.op, 0.0, 0.0]
            spans.append(span)
            token = _parent.set(span)
            c0 = cpu()
            span[START] = clock()
            try:
                return fn(*args)
            finally:
                span[END] = clock()
                span[CPU] = cpu() - c0
                _parent.reset(token)

        return kernel

    def _wrap_register_kernel(self, original: Callable) -> Callable:
        """Time every kernel a runtime registers.

        Process-backend kernels are left alone: a wrapper would not
        pickle, and the runtime would quietly run the kernel on the host
        instead of in the worker (whose own clock covers them).
        """

        def register_kernel(hs, name, fn=None, cost_fn=None):
            if fn is not None and type(hs.backend).__name__ != "ProcessBackend":
                fn = self._wrap_kernel(fn)
            return original(hs, name, fn=fn, cost_fn=cost_fn)

        return register_kernel

    def _wrap_on_complete(self, name: str, fn: Callable) -> Callable:
        traced = self._wrap(name, fn)
        if not self.bridge:
            return traced
        clock = time.perf_counter

        def marking(scheduler, action, *args, **kwargs):
            if self.enabled:
                self.completed_at[action.seq] = clock()
            return traced(scheduler, action, *args, **kwargs)

        return marking

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        get_ident = threading.get_ident

        async def traced(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            span = [name, 0.0, 0.0, _parent.get(), get_ident(), self.op, 0.0]
            self.spans.append(span)
            token = _parent.set(span)
            span[START] = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                span[END] = clock()
                _parent.reset(token)

        return traced

    def _wrap_session_submit(self, name: str, fn: Callable) -> Callable:
        """``Session.submit`` plus the two intervals that outlive it.

        ``dispatch``: submit called -> the submission's future resolved
        (what the server spends on one request, minus the transport).
        ``bridge``: ``on_complete`` entered on the worker thread -> the
        same future resolved on the loop thread.
        """
        traced = self._wrap_async(name, fn)
        clock = time.perf_counter

        async def submit(*args, **kwargs):
            if not self.enabled:
                return await traced(*args, **kwargs)
            self.op += 1
            t0 = clock()
            sub = await traced(*args, **kwargs)
            seq = sub.event.action.seq

            def resolved(_future) -> None:
                t1 = clock()
                self.flows.append(("service_session.dispatch", t0, t1))
                done_at = self.completed_at.pop(seq, None)
                if done_at is not None:
                    self.flows.append(("service_session.bridge", done_at, t1))

            sub.done.add_done_callback(resolved)
            return sub

        return submit

    def install(self) -> None:
        """Rebind every target; :meth:`uninstall` restores the originals."""
        for module, cls_name, method, name in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[method]
            if name == "scheduler.on_complete":
                wrapped = self._wrap_on_complete(name, fn)
            elif name == "service_session.submit":
                wrapped = self._wrap_session_submit(name, fn)
            elif inspect.iscoroutinefunction(fn):
                wrapped = self._wrap_async(name, fn)
            else:
                wrapped = self._wrap(name, fn)
            self._originals.append((cls, method, fn))
            setattr(cls, method, wrapped)
        hstreams = importlib.import_module("repro.core.runtime").HStreams
        original = hstreams.__dict__["register_kernel"]
        self._originals.append((hstreams, "register_kernel", original))
        hstreams.register_kernel = self._wrap_register_kernel(original)

    def uninstall(self) -> None:
        while self._originals:
            cls, method, fn = self._originals.pop()
            setattr(cls, method, fn)


# -- folding spans ------------------------------------------------------------


def summarize(rec: Recorder, blocking_thread: int) -> Dict[str, Any]:
    """Reduce the span store to what the ledger needs (JSON-able).

    ``by_name[name]`` = calls, total and self seconds, median duration.
    ``blocking`` = the same self seconds restricted to the one thread
    the op's caller blocks on, which is what ``unattributed`` is taken
    against. ``kernel_cpu_s`` = thread CPU seconds inside kernel calls. ``sync_wake_s`` = median gap between the last
    ``on_complete`` to finish inside a ``thread_synchronize`` and that
    synchronize returning.
    """
    done = [s for s in rec.spans if s[END] > 0.0]
    for span in done:
        span[SELF] = span[END] - span[START]
    for span in done:
        parent = span[PARENT]
        if parent is not None and parent[THREAD] == span[THREAD] and parent[END] > 0.0:
            parent[SELF] -= span[END] - span[START]
    durations: Dict[str, List[float]] = defaultdict(list)
    self_s: Dict[str, float] = defaultdict(float)
    blocking: Dict[str, float] = defaultdict(float)
    kernel_cpu_s = 0.0
    for span in done:
        durations[span[NAME]].append(span[END] - span[START])
        self_s[span[NAME]] += span[SELF]
        if len(span) > CPU:
            kernel_cpu_s += span[CPU]
        if span[THREAD] == blocking_thread:
            blocking[span[NAME]] += span[SELF]
    by_name = {
        name: {
            "calls": len(durs),
            "total_s": sum(durs),
            "self_s": self_s[name],
            "p50_s": statistics.median(durs),
        }
        for name, durs in durations.items()
    }
    flows: Dict[str, List[float]] = defaultdict(list)
    for name, t0, t1 in rec.flows:
        flows[name].append(t1 - t0)
    completions = sorted(s[END] for s in done if s[NAME] == "scheduler.on_complete")
    wakes = []
    for span in done:
        if span[NAME] != "runtime.thread_synchronize":
            continue
        i = bisect_right(completions, span[END])
        if i and completions[i - 1] >= span[START]:
            wakes.append(span[END] - completions[i - 1])
    return {
        "spans": len(done),
        "by_name": by_name,
        "blocking": dict(blocking),
        "kernel_cpu_s": kernel_cpu_s,
        "flow_p50_s": {k: statistics.median(v) for k, v in flows.items()},
        "sync_wake_s": statistics.median(wakes) if wakes else 0.0,
    }


def chrome_trace(rec: Recorder, pid: int) -> Dict[str, Any]:
    """The span store in Chrome's trace-event format (``chrome://tracing``)."""
    events = []
    for span in rec.spans:
        if span[END] <= 0.0:
            continue
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": span[START] * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": pid,
                "tid": span[THREAD],
                "args": {"op": span[OP]},
            }
        )
    for name, t0, t1 in rec.flows:
        events.append(
            {
                "name": name, "cat": "flow", "ph": "X", "ts": t0 * 1e6,
                "dur": (t1 - t0) * 1e6, "pid": pid, "tid": 0, "args": {},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- counters -----------------------------------------------------------------

#: Counters that are high-water marks, not running totals.
_PEAKS = ("max_depth", "live_streams")


def runtime_counters(hs) -> Dict[str, float]:
    """``hs.metrics()`` flattened to the totals the ledger divides by."""
    m = hs.metrics()
    streams = list(m["streams"].values())
    out = {
        "actions": m["actions"]["completed"],
        "not_completed": m["actions"]["failed"] + m["actions"]["cancelled"],
        "computes": m["by_kind"]["compute"]["count"],
        "transfers": m["by_kind"]["xfer"]["count"],
        "dep_stall_s": m["lifecycle"]["dep_stall_s"],
        "dispatch_stall_s": m["lifecycle"]["dispatch_stall_s"],
        "scan_comparisons": sum(s["dep_scan_comparisons"] for s in streams),
        "scan_candidates": sum(s["dep_scan_candidates"] for s in streams),
        "elided_transfers": m["memory"]["elided_transfers"],
        "max_depth": max((s["max_depth"] for s in streams), default=0),
        "live_streams": len(hs.streams),
    }
    backend = m.get("backend")
    if backend is not None:
        remote = backend["remote_actions"]
        out.update(
            remote_actions=remote,
            fallback_actions=backend["fallback_actions"],
            bytes_copied=backend["bytes_copied"],
            worker_exec_s=backend["worker_exec_s"],
            # The backend publishes the mean; the running total is what
            # can be differenced between two snapshots.
            ipc_overhead_s=backend["ipc_round_trip_s"] * max(1, remote),
        )
    return out


def admission_counters(service) -> Dict[str, float]:
    tenants = service.metrics()["tenants"].values()
    adm = [t["admission"] for t in tenants]
    return {
        "admitted": sum(a.get("admitted", 0) for a in adm),
        "queued_total": sum(a.get("queued_total", 0) for a in adm),
        "rejected": sum(a.get("rejected", 0) for a in adm),
    }


class CounterWindow:
    """Sum counter growth over the traced slices of a run only."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self._open: Optional[Dict[str, float]] = None

    def open(self, snapshot: Dict[str, float]) -> None:
        self._open = snapshot

    def close(self, snapshot: Dict[str, float]) -> None:
        before, self._open = self._open or {}, None
        self.add({
            k: v if k in _PEAKS else v - before.get(k, 0) for k, v in snapshot.items()
        })

    def add(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            if key in _PEAKS:
                self.total[key] = max(self.total[key], value)
            else:
                self.total[key] += value


# -- the ledger ---------------------------------------------------------------


def per_layer(
    summary: Dict[str, Any],
    counters: Dict[str, float],
    *,
    wall_s: float,
    rate_traced: float,
    rate_untraced: float,
    peak_threads: int,
    real_time: bool,
    flops: float = 0.0,
    client_p50_s: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, for one workload.

    ``*_us`` rows are self seconds of the traced slices divided by the
    actions completed in them, so rows of one workload add up; the
    exceptions (per call, or a median) say so in the README glossary.
    ``real_time`` is False on the sim backend, whose lifecycle clocks
    are virtual seconds and whose kernels never execute: rows built on
    them read 0 there. A layer a workload never enters also reads 0.
    """
    by_name = summary["by_name"]
    actions = max(1.0, counters.get("actions", 0))
    client = client_p50_s or {}

    def self_us(*names: str) -> float:
        return 1e6 * sum(by_name.get(n, {}).get("self_s", 0.0) for n in names) / actions

    def per_call_us(name: str) -> float:
        entry = by_name.get(name)
        return 1e6 * entry["self_s"] / entry["calls"] if entry else 0.0

    def p50_us(name: str) -> float:
        return 1e6 * by_name.get(name, {}).get("p50_s", 0.0)

    def share(part: str, *whole: str) -> float:
        total = sum(counters.get(k, 0) for k in whole)
        return counters.get(part, 0) / total if total else 0.0

    dispatch = summary["flow_p50_s"].get("service_session.dispatch", 0.0)
    submit_rtt = client.get("submit", 0.0)
    remote = counters.get("remote_actions", 0)
    # Kernel time: thread CPU inside the kernel calls where they run in
    # this process, the worker's own clock where they were shipped out.
    kernel_calls = by_name.get("kernels.exec", {"calls": 0})["calls"] + remote
    exec_s = summary["kernel_cpu_s"] + counters.get("worker_exec_s", 0.0)
    attributed = sum(summary["blocking"].values())
    out = {
        "service_server.rtt_overhead_us": 1e6 * max(0.0, submit_rtt - dispatch) if dispatch else 0.0,
        "service_server.open_ms_p50": 1e3 * client.get("open", 0.0),
        "service_server.close_ms_p50": 1e3 * client.get("close", 0.0),
        "service_session.submit_self_us": per_call_us("service_session.submit"),
        "service_session.bridge_us": 1e6 * summary["flow_p50_s"].get("service_session.bridge", 0.0),
        "service_admission.submit_us": per_call_us("service_admission.submit"),
        "service_admission.release_us": per_call_us("service_admission.release"),
        "service_admission.queued_share": share("queued_total", "admitted", "rejected"),
        "service_admission.rejected_share": share("rejected", "admitted", "rejected"),
        "runtime.enqueue_compute_self_us": self_us("runtime.enqueue_compute"),
        "runtime.enqueue_xfer_self_us": self_us("runtime.enqueue_xfer"),
        "runtime.sync_wake_us": 1e6 * summary["sync_wake_s"],
        "runtime.actions_per_s": counters.get("actions", 0) / wall_s if wall_s else 0.0,
        "runtime.stream_create_us": p50_us("runtime.stream_create"),
        "runtime.stream_destroy_us": p50_us("runtime.stream_destroy"),
        "scheduler.enqueue_self_us": self_us("scheduler.enqueue", "scheduler.enqueue_precomputed"),
        "scheduler.on_complete_self_us": self_us("scheduler.on_complete"),
        "scheduler.max_window_depth": counters.get("max_depth", 0),
        "scheduler.admit_instance_us": self_us("scheduler.admit_instance"),
        "scheduler.dep_stall_us": 1e6 * counters.get("dep_stall_s", 0.0) / actions if real_time else 0.0,
        "dependences.deps_for_us": self_us("dependences.deps_for"),
        "dependences.scan_comparisons_per_action": counters.get("scan_comparisons", 0) / actions,
        "dependences.scan_candidates_per_action": counters.get("scan_candidates", 0) / actions,
        "memory.on_enqueue_us": self_us("memory.on_enqueue"),
        "memory.on_complete_us": self_us("memory.on_action_complete"),
        "memory.instantiate_us": self_us("memory.instantiate"),
        "memory.elided_share": share("elided_transfers", "transfers"),
        "thread_backend.execute_handoff_us": self_us("thread_backend.execute"),
        "thread_backend.dispatch_stall_us": 1e6 * counters.get("dispatch_stall_s", 0.0) / actions if real_time else 0.0,
        "thread_backend.threads_per_stream": (
            peak_threads / counters["live_streams"]
            if real_time and counters.get("live_streams") else 0.0
        ),
        "process_backend.ipc_round_trip_us": 1e6 * counters.get("ipc_overhead_s", 0.0) / remote if remote else 0.0,
        "process_backend.worker_exec_us": 1e6 * counters.get("worker_exec_s", 0.0) / remote if remote else 0.0,
        "process_backend.remote_share": share("remote_actions", "remote_actions", "fallback_actions"),
        "process_backend.bytes_copied_per_action": counters.get("bytes_copied", 0) / actions,
        "sim_backend.execute_us": self_us("sim_backend.execute"),
        "sim_engine.run_us": self_us("sim_backend.wait_all", "sim_backend.wait_events"),
        "replay.instantiate_us": self_us("replay.instantiate"),
        "replay.replay_call_us": self_us("runtime.replay"),
        "kernels.exec_us": 1e6 * exec_s / kernel_calls if kernel_calls else 0.0,
        "kernels.exec_share": exec_s / wall_s if wall_s else 0.0,
        "kernels.gflops": flops / exec_s / 1e9 if exec_s else 0.0,
        "ledger.unattributed_pct": 100.0 * (wall_s - attributed) / wall_s if wall_s else 0.0,
        "ledger.trace_overhead_pct": (
            100.0 * (1.0 - rate_traced / rate_untraced) if rate_untraced else 0.0
        ),
    }
    return out


def blocking_ledger(summary: Dict[str, Any], wall_s: float) -> List[Tuple[str, float]]:
    """The blocking thread's wall time split by layer, in percent.

    Ends with the unattributed remainder, so the rows add up to 100.
    """
    rows = sorted(summary["blocking"].items(), key=lambda kv: -kv[1])
    out = [(name, 100.0 * secs / wall_s) for name, secs in rows if wall_s]
    out.append(("(unattributed)", 100.0 - sum(pct for _, pct in out)))
    return out
