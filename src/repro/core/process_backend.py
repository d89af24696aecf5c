"""Process backend: true multi-domain parallelism past the GIL.

Both existing backends execute Python compute kernels under one GIL, so
the thread backend cannot show real multi-domain overlap on CPU-bound
work. This backend runs one worker *process* per card domain and backs
every card-domain buffer instance with a POSIX shared-memory segment
(``multiprocessing.shared_memory``):

* the host process maps every segment, so H2D/D2H transfers stay the
  thread backend's single ``np.copyto`` memcpys over shared mappings
  (host-as-target transfers and elided transfers remain zero-copy);
* card-domain compute actions are shipped to the owning domain's worker
  over one duplex pipe per worker; the worker resolves operand specs to
  numpy views of the same segments and runs the kernel with its *own*
  interpreter and its own GIL — CPU-bound kernels on different domains
  genuinely overlap;
* nothing on the host waits for a shipped compute. The domain worker
  thread that dispatched it starts it as every backend does
  (``Backend._start``: start reported, fault check), writes the command
  from :meth:`ProcessBackend._execute` and returns to its slot, so a
  stream's consecutive ready computes pipeline into the (serial) worker
  process. One completion pump thread blocks on every worker's pipe and
  process sentinel and finishes each completion it reads (tracing, then
  ``Backend._finish``: post-hoc action timeout on the worker-measured
  kernel time, ``on_complete``) — so lifecycle ordering, fault
  injection and retry backoff behave cell-for-cell like the thread
  backend. The pump is not a domain worker: what its completions ready
  is handed to the domain's workers, never claimed by the pump.

Everything that is not a card-domain compute (transfers, host-domain
computes, syncs) — and any compute whose kernel or extra arguments
cannot cross a process boundary — executes host-side exactly as the
thread backend would. That fallback is always correct because the host
maps every segment; it only costs the parallelism for that one action
(counted in ``backend_metrics()["fallback_actions"]``).

Picklability is the remote-eligibility contract, under *every* start
method: a kernel callable that pickles (module-level function, builtin,
``operator`` member, functools partial of those) executes in the
worker; one that does not (lambdas, closures) executes host-side. This
is deliberate, not merely a transport constraint — a closure is exactly
the kernel that can capture host-process state (counters, lists, test
fixtures), and running it in a forked child would silently drop those
side effects. The gate keeps thread-backend programs semantically
identical on this backend, which is what lets the backend-parity suites
run here unchanged.

Segment lifecycle: the host creates each segment (its resource tracker
makes the unlink crash-safe), tells workers to attach lazily by name,
and refcounts attachments. Evict/destroy sends ``forget`` to every
attached worker and unlinks eagerly — the ``/dev/shm`` entry is gone
immediately; the memory itself is freed when the last mapping closes.
Because the memory manager deletes the instance's numpy view *after*
the evict hook runs, the host-side ``close()`` is deferred to a
graveyard drained once the view is gone (``shm.close()`` raises
``BufferError`` while exports exist).

Worker death (kill/OOM/segfault) wakes the pump through the process
sentinel: it first delivers the completions the worker managed to
write, then fails every action still in flight there with a transient
:class:`~repro.core.errors.HStreamsBackendDied`, so waits never hang —
under ``failure_policy="retry"`` the next dispatch spawns a fresh
worker and the action re-runs there.

Locking: one condition, ``backend.process``, guards workers, segments,
in-flight commands and the counters. Its lock is a leaf — nothing is
acquired under it and it is never held across a call into the
scheduler. Pipe writes happen under it (they order a stream's commands
and serialize the streams sharing a worker); they cannot wedge the pump
because at most :data:`_MAX_INFLIGHT` commands are outstanding per
worker, which keeps the completion direction of the pipe from ever
filling, so the worker always gets back to reading.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import struct
import threading
import time
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.actions import Action, ActionKind, Operand
from repro.core.buffer import Buffer
from repro.core.errors import (
    HStreamsBackendDied,
    HStreamsInternalError,
    is_transient,
    mark_transient,
)
from repro.core.sync import caller_locked, guarded_by, make_condition
from repro.core.thread_backend import ThreadBackend

__all__ = ["ProcessBackend"]

#: Commands outstanding per worker. Small enough that their completions
#: always fit the pipe (see "Locking" above), large enough that a
#: wave of ready computes pipelines without a shipper ever waiting.
_MAX_INFLIGHT = 32

# Host -> worker wire format: an 8-byte header, then at most one pickle.
# The header is the action's seq (>= 0: execute ``(kernel name, callable
# or None, operand specs)``) or a control code. Keeping it outside the
# pickle lets the worker report a command it cannot unpickle against
# the right action.
_HEADER = struct.Struct("<q")
_FORGET = -1  # body: pickled segment name
_STOP = -2  # no body


# ---------------------------------------------------------------------------
# Worker side (module-level so the "spawn" start method can pickle it)
# ---------------------------------------------------------------------------


def _worker_detach_resource_tracker() -> None:
    """Disconnect this worker process from the resource tracker.

    Two reasons, both load-bearing:

    * **Fork safety.** ``ResourceTracker._lock`` is a process-private
      ``threading.RLock``. A forked worker's memory image can contain
      it *held* — the host creates segments (``make_instance`` →
      ``register``) on one slot thread while another slot thread forks
      a worker — and the copy is never released in the child, so the
      worker's first segment attach would deadlock inside
      ``ensure_running`` before it ever read a command.
    * **Ownership.** Segments are the host's (see the class docstring):
      the host registers them with *its* tracker for crash-safe unlink.
      Attaching re-registers the name (no ``track=`` parameter before
      3.13), and a worker must never register or unregister in the
      shared tracker — unregistering would destroy the host's
      crash-safety, and registering is at best a redundant set-add.

    Patching the module attributes is enough: ``shared_memory`` calls
    ``resource_tracker.register(...)`` by attribute lookup.
    """
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda *_a, **_k: None
    resource_tracker.unregister = lambda *_a, **_k: None
    resource_tracker.ensure_running = lambda *_a, **_k: None


def _worker_attach(cache: Dict[str, shared_memory.SharedMemory], name: str):
    """Attach (and cache) a host-created segment by name."""
    try:
        return cache[name]
    except KeyError:
        seg = shared_memory.SharedMemory(name=name)
        cache[name] = seg
        return seg


def _worker_resolve(cache: Dict[str, shared_memory.SharedMemory], spec: Tuple):
    """Rebuild one kernel argument from its picklable wire spec."""
    tag = spec[0]
    if tag == "obj":
        return spec[1]
    if tag == "view":
        _, name, offset, nbytes, dtype, shape = spec
        seg = _worker_attach(cache, name)
        flat = np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf, offset=offset)
        typed = flat.view(dtype if dtype is not None else np.float64)
        return typed.reshape(shape) if shape is not None else typed
    if tag == "flat":
        _, name, nbytes = spec
        seg = _worker_attach(cache, name)
        return np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf)
    raise ValueError(f"unknown operand spec tag {tag!r}")


def _worker_main(domain: int, conn) -> None:
    """Per-domain worker loop: attach segments, run kernels, report."""
    _worker_detach_resource_tracker()
    cache: Dict[str, shared_memory.SharedMemory] = {}
    fns: Dict[str, Any] = {}
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:  # host end closed without a stop
            break
        (seq,) = _HEADER.unpack_from(data)
        body = memoryview(data)[_HEADER.size:]
        if seq == _STOP:
            break
        if seq == _FORGET:
            name = pickle.loads(body)
            seg = cache.pop(name, None)
            if seg is not None:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - no views outlive exec
                    cache[name] = seg
            continue
        t0 = time.perf_counter()
        err_bytes = None
        transient = False
        try:
            kname, fn, specs = pickle.loads(body)
            t0 = time.perf_counter()
            if fn is not None:
                fns[kname] = fn
            fn = fns[kname]
            args = [_worker_resolve(cache, s) for s in specs]
            fn(*args)
            del args
        except BaseException as exc:  # noqa: BLE001 - shipped to the host
            transient = is_transient(exc)
            try:
                err_bytes = pickle.dumps(exc)
            except Exception:
                err_bytes = pickle.dumps(
                    RuntimeError(f"{type(exc).__name__}: {exc}")
                )
        conn.send((seq, time.perf_counter() - t0, err_bytes, transient))
    for seg in cache.values():
        try:
            seg.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


# ---------------------------------------------------------------------------
# Host-side bookkeeping
# ---------------------------------------------------------------------------


class _Segment:
    """A host-created shared-memory segment backing one (buffer, domain)."""

    __slots__ = ("shm", "name", "nbytes", "attached", "unlinked")

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int):
        self.shm = shm
        self.name = shm.name
        self.nbytes = nbytes
        #: Worker domains that were told this segment's name (refcount).
        self.attached: Set[int] = set()
        self.unlinked = False


class _Worker:
    """One spawned worker process plus its command-side state."""

    __slots__ = ("domain", "process", "conn", "kernels", "inflight")

    def __init__(self, domain: int, process, conn):
        self.domain = domain
        self.process = process
        #: Host end of the duplex pipe: commands out, completions in.
        self.conn = conn
        #: Kernel callables the worker was sent, by registered name.
        self.kernels: Dict[str, Any] = {}
        #: Commands written but not yet completed, by action seq:
        #: ``(action, start, shipped_at)``. Insertion order is ship
        #: order, which is the order death reaping fails them in.
        self.inflight: Dict[int, Tuple[Action, float, float]] = {}


@guarded_by(
    "_cv", "_segments", "_workers", "_shipped", "_ever_died", "_m",
    "_pump_thread", "_stopping",
)
class ProcessBackend(ThreadBackend):
    """One worker process per domain over shared-memory buffer instances."""

    def __init__(self, start_method: Optional[str] = None):
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._start_method = start_method
        self._mp = mp.get_context(start_method)

    # -- lifecycle -------------------------------------------------------------

    def attach(self, runtime) -> None:
        super().attach(runtime)
        # Guards everything below; waited on by shippers (in-flight
        # window full) and host-side fallback computes (stream's shipped
        # computes not yet drained), notified by the pump.
        self._cv = make_condition(
            None, "backend.process", sanitizer=getattr(runtime, "sanitizer", None)
        )
        self._graveyard: List[shared_memory.SharedMemory] = []
        # Wakes the pump out of its wait when the worker set changes.
        self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        with self._cv:  # attach is construction, but the lint only knows __init__
            self._segments: Dict[Tuple[int, int], _Segment] = {}
            self._workers: Dict[int, _Worker] = {}
            #: Computes in flight in a worker, by stream id; an entry
            #: exists only while its count is positive.
            self._shipped: Dict[int, int] = {}
            self._ever_died: Set[int] = set()
            self._pump_thread: Optional[threading.Thread] = None
            self._stopping = False
            self._m: Dict[str, float] = {
                "remote_actions": 0,
                "fallback_actions": 0,
                "commands_sent": 0,
                "worker_deaths": 0,
                "respawns": 0,
                "bytes_zero_copy": 0,
                "bytes_copied": 0,
                "segments_created": 0,
                "segments_unlinked": 0,
                "ipc_wait_s": 0.0,
                "worker_exec_s": 0.0,
            }

    def close(self) -> None:
        # Drain the domain workers first: no new dispatches after this.
        super().close()
        with self._cv:
            workers = list(self._workers.values())
            self._workers.clear()
            pump = self._pump_thread
            self._stopping = True
            self._wake_w.send_bytes(b"x")
        # The pump goes first, so the exits below are not taken for deaths.
        if pump is not None:
            pump.join(timeout=2.0)
        for w in workers:
            try:
                w.conn.send_bytes(_HEADER.pack(_STOP))
            except OSError:
                pass
        for w in workers:
            w.process.join(timeout=2.0)
            if w.process.is_alive():  # pragma: no cover - stuck worker
                w.process.terminate()
                w.process.join(timeout=1.0)
            w.conn.close()
        self._wake_r.close()
        self._wake_w.close()
        # fini() does not destroy live buffers; unlink whatever remains
        # so no /dev/shm entry outlives the runtime. The host-side
        # close() of still-viewed segments stays deferred (the caller
        # may hold wrapped arrays); unlink alone removes the leak.
        with self._cv:
            segs = list(self._segments.values())
            self._segments.clear()
        for seg in segs:
            self._unlink(seg)
        self._drain_graveyard()

    # -- instances over shared memory ------------------------------------------

    def make_instance(self, buf: Buffer, domain: int) -> np.ndarray:
        if domain == 0:
            # Host instances keep the thread backend's semantics: the
            # wrapped caller array aliases away, plain allocations stay
            # process-private (host computes run host-side anyway).
            return super().make_instance(buf, domain)
        shm = shared_memory.SharedMemory(create=True, size=max(1, buf.nbytes))
        seg = _Segment(shm, buf.nbytes)
        with self._cv:
            self._segments[(buf.uid, domain)] = seg
            self._m["segments_created"] += 1
        # Linux zero-fills fresh segments, matching np.zeros parity.
        return np.ndarray((buf.nbytes,), dtype=np.uint8, buffer=shm.buf)

    def on_instance_evict(self, buf: Buffer, domain: int) -> None:
        if domain != 0:
            self._release_segment((buf.uid, domain))

    def on_buffer_destroy(self, buf: Buffer) -> None:
        with self._cv:
            keys = [k for k in self._segments if k[0] == buf.uid]
        for key in keys:
            self._release_segment(key)

    def _release_segment(self, key: Tuple[int, int]) -> None:
        with self._cv:
            seg = self._segments.pop(key, None)
            if seg is None:
                return
            forget = _HEADER.pack(_FORGET) + pickle.dumps(seg.name)
            for domain in seg.attached:
                w = self._workers.get(domain)
                if w is not None:
                    try:
                        w.conn.send_bytes(forget)
                    except OSError:  # dead worker: the pump reaps it
                        pass
        self._unlink(seg)
        self._drain_graveyard()

    def _unlink(self, seg: _Segment) -> None:
        if not seg.unlinked:
            seg.unlinked = True
            try:
                seg.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with self._cv:
                self._m["segments_unlinked"] += 1
        # The manager deletes the instance's numpy view only after the
        # evict hook returns, so the export is still alive here — defer
        # the mapping close until the view is gone.
        self._graveyard.append(seg.shm)

    def _drain_graveyard(self) -> None:
        kept = []
        for shm in self._graveyard:
            try:
                shm.close()
            except BufferError:
                kept.append(shm)
        self._graveyard[:] = kept

    def live_segment_names(self) -> List[str]:
        """Names of segments currently backing instances (test hook)."""
        with self._cv:
            return sorted(seg.name for seg in self._segments.values())

    # -- workers ----------------------------------------------------------------

    @caller_locked("_cv")
    def _spawn_worker(self, domain: int) -> _Worker:
        """Start ``domain``'s worker (and, the first time, the pump).

        Workers start with no kernels: each callable is shipped with
        the first command that names it.
        """
        if self._pump_thread is None:
            self._pump_thread = threading.Thread(
                target=self._pump, name="hstr-pump", daemon=True
            )
            self._pump_thread.start()
        host_end, worker_end = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(domain, worker_end),
            name=f"hstr-worker-d{domain}",
            daemon=True,
        )
        proc.start()
        # The child holds its own copy; with ours closed, writing to a
        # dead worker fails instead of filling a pipe nobody reads.
        worker_end.close()
        w = _Worker(domain, proc, host_end)
        self._workers[domain] = w
        if domain in self._ever_died:
            self._m["respawns"] += 1
        self._wake_w.send_bytes(b"x")
        return w

    @caller_locked("_cv")
    def _live_worker(self, domain: int) -> _Worker:
        """``domain``'s worker process, started if it has none."""
        worker = self._workers.get(domain)
        return worker if worker is not None else self._spawn_worker(domain)

    # -- execution ----------------------------------------------------------------

    def execute(self, action: Action) -> None:
        """Dispatch as the thread backend does; a card compute first
        makes sure its domain has a worker process, so the fork happens
        on the dispatching thread rather than on a domain worker."""
        stream = action.stream
        assert stream is not None
        if action.kind is ActionKind.COMPUTE and stream.domain != 0:
            with self._cv:
                self._live_worker(stream.domain)
        super().execute(action)

    def _execute(self, action: Action) -> Optional[bool]:
        """Ship a card compute to its domain's worker process (True: the
        pump reports its completion); run anything else, or a compute
        that cannot ship, host-side as the thread backend does."""
        stream = action.stream
        assert stream is not None
        if action.kind is ActionKind.COMPUTE and stream.domain != 0:
            if self._ship(action):
                return True
        elif action.kind is ActionKind.XFER:
            op = action.operands[0]
            with self._cv:
                if stream.domain == 0 or action.elided:
                    self._m["bytes_zero_copy"] += op.nbytes
                else:
                    self._m["bytes_copied"] += op.nbytes
        return super()._execute(action)

    @caller_locked("_cv")
    def _command(self, action: Action, worker: _Worker) -> Optional[bytes]:
        """The wire form of a card compute, or None to run it host-side.

        The one ``pickle.dumps`` is the remote-eligibility gate: a
        kernel or argument that does not pickle keeps the action here.
        """
        assert action.stream is not None
        domain = action.stream.domain
        fn = self.runtime.kernel(action.kernel).fn
        if fn is None:
            return None
        specs: List[Tuple] = []
        touched: List[_Segment] = []
        for item in action.args:
            if isinstance(item, Operand):
                seg = self._segments.get((item.buffer.uid, domain))
                if seg is None:
                    return None
                specs.append(
                    ("view", seg.name, item.offset, item.nbytes, item.dtype,
                     item.shape)
                )
                touched.append(seg)
            elif isinstance(item, Buffer):
                seg = self._segments.get((item.uid, domain))
                if seg is None:
                    return None
                specs.append(("flat", seg.name, item.nbytes))
                touched.append(seg)
            else:
                specs.append(("obj", item))
        known = worker.kernels.get(action.kernel) is fn
        try:
            body = pickle.dumps((action.kernel, None if known else fn, specs))
        except Exception:
            return None
        worker.kernels[action.kernel] = fn
        for seg in touched:
            seg.attached.add(domain)
        return _HEADER.pack(action.seq) + body

    def _ship(self, action: Action) -> bool:
        """Write a card compute to its domain's worker; False to fall back.

        Runs on a domain worker thread right after the action started,
        and that thread returns to its slot as soon as the command is
        written. A fallback first waits for the stream's shipped
        computes to drain, so mixing remote and host-side kernels in one
        stream stays serial.
        """
        start = self.now()
        stream = action.stream
        assert stream is not None
        domain = stream.domain
        with self._cv:
            while True:
                worker = self._live_worker(domain)
                if len(worker.inflight) < _MAX_INFLIGHT:
                    break
                self._cv.wait()
            command = self._command(action, worker)
            if command is None:
                while self._shipped.get(stream.id):
                    self._cv.wait()
                self._m["fallback_actions"] += 1
                return False
            worker.inflight[action.seq] = (action, start, self.now())
            self._shipped[stream.id] = self._shipped.get(stream.id, 0) + 1
            self._m["remote_actions"] += 1
            self._m["commands_sent"] += 1
            try:
                worker.conn.send_bytes(command)
            except OSError:
                # The worker died under us. The command stays in flight:
                # the pump's reaping fails it with the rest.
                pass
        return True

    # -- completion pump ----------------------------------------------------------

    def _pump(self) -> None:
        while True:
            with self._cv:
                if self._stopping:
                    return
                workers = list(self._workers.values())
            waitables = [self._wake_r]
            for w in workers:
                waitables += (w.conn, w.process.sentinel)
            ready = mp_connection.wait(waitables)
            if self._wake_r in ready:
                self._wake_r.recv_bytes()
            for w in workers:
                dead = w.process.sentinel in ready
                if dead or w.conn in ready:
                    # Completions written before a death are delivered
                    # first, so only truly lost actions fail.
                    self._drain(w)
                if dead:
                    self._reap(w)

    def _drain(self, w: _Worker) -> None:
        """Deliver every completion already in ``w``'s pipe."""
        while True:
            try:
                if not w.conn.poll():
                    return
                msg = w.conn.recv()
            except (EOFError, OSError):
                return
            self._deliver(w, msg)

    def _deliver(self, w: _Worker, msg: Tuple) -> None:
        seq, duration, err_bytes, transient = msg
        end = self.now()
        with self._cv:
            action, start, shipped_at = w.inflight.pop(seq)
            self._settle(action)
            self._m["ipc_wait_s"] += end - shipped_at
            self._m["worker_exec_s"] += duration
        error: Optional[BaseException] = None
        if err_bytes is not None:
            try:
                error = pickle.loads(err_bytes)
            except Exception:  # pragma: no cover - defensive
                error = HStreamsInternalError(
                    f"worker error for {seq} could not be unpickled"
                )
            if transient:
                mark_transient(error)
        # The budget is judged on the kernel's own duration: start -> end
        # also counts queueing behind the stream's earlier commands.
        self._epilogue(action, start, end, error, duration)

    @caller_locked("_cv")
    def _settle(self, action: Action) -> None:
        """One shipped compute of ``action``'s stream left the worker."""
        assert action.stream is not None
        sid = action.stream.id
        left = self._shipped[sid] - 1
        if left:
            self._shipped[sid] = left
        else:
            del self._shipped[sid]
        self._cv.notify_all()

    def _reap(self, w: _Worker) -> None:
        """Fail everything still in flight on a dead worker."""
        with self._cv:
            if self._workers.get(w.domain) is not w:
                return  # close() took it
            del self._workers[w.domain]
            self._ever_died.add(w.domain)
            self._m["worker_deaths"] += 1
            lost = list(w.inflight.items())
            w.inflight.clear()
            for _, (action, _, _) in lost:
                self._settle(action)
        w.conn.close()
        w.process.join()
        for seq, (action, start, _) in lost:
            end = self.now()
            error = mark_transient(
                HStreamsBackendDied(
                    f"worker process for domain {w.domain} "
                    f"(pid {w.process.pid}) exited with code "
                    f"{w.process.exitcode} with action seq {seq} in flight"
                )
            )
            self._epilogue(action, start, end, error, end - start)

    # -- observability ------------------------------------------------------------

    def backend_metrics(self) -> Dict[str, Any]:
        """The ``metrics()["backend"]`` block: IPC and segment counters.

        ``ipc_round_trip_s`` is the mean of (command written ->
        completion delivered) minus the worker-measured kernel time.
        With commands pipelined, the first term includes queueing
        behind the stream's earlier commands in the worker, so this
        figure *rises* with pipelining depth while the cost per action
        falls; read throughput off ``remote_actions`` over wall time.
        """
        with self._cv:
            m = dict(self._m)
            workers = {
                d: {
                    "pid": w.process.pid,
                    "alive": w.process.exitcode is None,
                    "queue_depth": len(w.inflight),
                }
                for d, w in self._workers.items()
            }
            live = len(self._segments)
            pending_close = len(self._graveyard)
        remote = max(1, int(m["remote_actions"]))
        return {
            "name": "process",
            "start_method": self._start_method,
            "workers": workers,
            "remote_actions": int(m["remote_actions"]),
            "fallback_actions": int(m["fallback_actions"]),
            "commands_sent": int(m["commands_sent"]),
            "worker_deaths": int(m["worker_deaths"]),
            "respawns": int(m["respawns"]),
            "bytes_zero_copy": int(m["bytes_zero_copy"]),
            "bytes_copied": int(m["bytes_copied"]),
            "ipc_round_trip_s": max(
                0.0, (m["ipc_wait_s"] - m["worker_exec_s"]) / remote
            ),
            "worker_exec_s": m["worker_exec_s"],
            "segments": {
                "created": int(m["segments_created"]),
                "unlinked": int(m["segments_unlinked"]),
                "live": live,
                "pending_close": pending_close,
            },
        }
