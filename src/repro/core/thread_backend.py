"""Thread backend: real execution of hStreams actions.

This backend makes the runtime a genuinely usable library: registered
Python kernels execute on worker threads with operand arguments resolved
to numpy views in the sink domain's address space, and transfers really
copy bytes between per-domain instances.

Mapping of the paper's resources:

* the sink endpoint is a *domain plus a CPU mask*, not a thread, so the
  partition is the executor: each domain owns one bounded worker set
  (:class:`_DomainWorkers`) and a stream is a *slot* in it — a
  ``running`` flag plus a pending FIFO. Compute tasks in a stream
  serialize (the sink's cores run one task at a time) and run in
  dispatch order, which is *readiness* order, i.e. out of FIFO order
  when operands don't conflict; streams of one domain overlap. A
  domain never runs more workers than ``min(live streams, device
  cores)``, so creating or destroying a stream is a dictionary update
  and 10 000 idle streams cost no thread;
* transfers run on a separate DMA-like worker pool, so they overlap with
  compute exactly as PCIe DMA engines do;
* per-domain address spaces are separate numpy allocations; the host
  instance of a wrapped array is the caller's own memory (zero-copy), so
  host-as-target transfers alias away.

The backend is a pure executor: dependence tracking, readiness dispatch,
completion propagation, and failure policy belong to the shared
:class:`~repro.core.scheduler.Scheduler`, which only hands this backend
actions whose dependences are already satisfied. Kernel exceptions do
not deadlock the runtime: the failing action still completes, the
scheduler applies the failure policy (poisoning dependents into
CANCELLED, or retrying transient errors), and every error is kept in
the scheduler's :class:`~repro.core.scheduler.FailureState` ledger —
the next synchronization re-raises the first with the rest attached,
and keeps re-raising until ``HStreams.clear_failure()``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import Action, ActionKind, Operand, XferDirection
from repro.core.backend import Backend
from repro.core.buffer import Buffer
from repro.core.errors import HStreamsInternalError, HStreamsTimedOut
from repro.core.events import HEvent
from repro.core.sync import guarded_by, make_condition

__all__ = ["ThreadBackend"]

_TRACE_KIND = {
    ActionKind.COMPUTE: "compute",
    ActionKind.XFER: "transfer",
    ActionKind.SYNC: "sync",
}


class _Slot:
    """One stream's place in its domain's worker set.

    ``running`` is set while the slot is queued for, or held by, a
    worker — at most one worker at a time, which is what serializes a
    stream's computes. ``pending`` holds its dispatched ``(action,
    delay)`` pairs in the order they will run. Both are guarded by the
    owning :class:`_DomainWorkers` lock.
    """

    __slots__ = ("running", "pending")

    def __init__(self) -> None:
        self.running = False
        self.pending: Deque[Tuple[Action, float]] = deque()


@guarded_by("_cv", "_slots", "_ready", "_idle", "_threads", "_closing")
class _DomainWorkers:
    """One domain's executor: a bounded worker set draining stream slots.

    A worker takes the slot at the head of the ready queue, runs one of
    its pending actions outside the lock, then — in one lock hold —
    puts the slot back behind the other ready slots if it has more
    work (so streams share workers fairly) and takes the next ready
    slot, which is its own again when no other stream is waiting: no
    sleep and no wake-up between a stream's consecutive actions.

    A new worker is started only when an action becomes ready, no
    worker is idle, and the set is smaller than ``min(live streams,
    device cores)``. A kernel may therefore block on a kernel of
    another stream of the same domain as long as the domain has no
    more streams than cores: every stream can then hold a worker of
    its own. Workers are daemons and idle until :meth:`close`.

    ``_cv``'s lock is a leaf: nothing else is acquired under it, and it
    is never held while an action runs or reports to the scheduler.
    """

    def __init__(
        self,
        domain: int,
        cores: int,
        run: Callable[[Action, float], None],
        sanitizer=None,
    ) -> None:
        self._domain = domain
        self._cores = cores
        self._run = run
        self._cv = make_condition(
            None, f"backend.workers.d{domain}", sanitizer=sanitizer
        )
        self._slots: Dict[int, _Slot] = {}
        self._ready: Deque[_Slot] = deque()
        #: Workers waiting on ``_cv`` that no submit has claimed yet.
        self._idle = 0
        self._threads: List[threading.Thread] = []
        self._closing = False

    def add_stream(self, stream_id: int) -> None:
        with self._cv:
            self._slots[stream_id] = _Slot()

    def drop_stream(self, stream_id: int) -> None:
        with self._cv:
            self._slots.pop(stream_id, None)

    def submit(
        self, stream_id: int, action: Action, delay: float = 0.0,
        front: bool = False,
    ) -> None:
        """Queue ``action`` on its stream's slot; ``front`` puts it
        ahead of everything already pending there (a retry)."""
        thread = None
        with self._cv:
            slot = self._slots[stream_id]
            if front:
                slot.pending.appendleft((action, delay))
            else:
                slot.pending.append((action, delay))
            if slot.running:
                return
            slot.running = True
            self._ready.append(slot)
            if self._idle:
                # Claimed here, not by the woken worker: a second submit
                # before it runs must not count the same worker twice.
                self._idle -= 1
                self._cv.notify()
            elif len(self._threads) < min(len(self._slots), self._cores):
                thread = threading.Thread(
                    target=self._work,
                    name=f"hstr-d{self._domain}-w{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
        if thread is not None:
            thread.start()

    def _work(self) -> None:
        slot: Optional[_Slot] = None
        while True:
            with self._cv:
                if slot is not None:
                    if slot.pending:
                        self._ready.append(slot)
                    else:
                        slot.running = False
                while not self._ready:
                    if self._closing:
                        return
                    self._idle += 1
                    self._cv.wait()
                slot = self._ready.popleft()
                action, delay = slot.pending.popleft()
            try:
                self._run(action, delay)
            except Exception:
                # Kernel errors are reported through on_complete; what
                # escapes _run is a runtime bug. Report it like a dying
                # thread would, but keep the worker and the slot alive.
                threading.excepthook(
                    threading.ExceptHookArgs(
                        (*sys.exc_info(), threading.current_thread())
                    )
                )

    def close(self) -> None:
        with self._cv:
            self._closing = True
            self._cv.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join()


class ThreadBackend(Backend):
    """Real-execution backend on worker threads."""

    def __init__(self, xfer_workers: int = 4):
        if xfer_workers < 1:
            raise ValueError("need at least one transfer worker")
        self._xfer_workers = xfer_workers

    # -- lifecycle -------------------------------------------------------------

    def attach(self, runtime) -> None:
        self.runtime = runtime
        sanitizer = getattr(runtime, "sanitizer", None)
        #: One worker set per domain, indexed by domain.
        self._domain_workers = [
            _DomainWorkers(
                dom.index, dom.device.total_cores, self._run, sanitizer
            )
            for dom in runtime.domains
        ]
        if sanitizer is not None:
            for workers in self._domain_workers:
                sanitizer.instrument(workers)
        self._xfer_pool = ThreadPoolExecutor(
            max_workers=self._xfer_workers, thread_name_prefix="hstr-xfer"
        )
        # Every completion (success, failure, or cancellation) notifies
        # this condition; host wait paths block on it instead of polling.
        # One backend-wide condition suffices: the source endpoint is a
        # single thread, so there is at most one waiter, and failures in
        # *any* stream must wake a wait on any other (a dead producer's
        # events may never fire). Its lock is private (not the
        # scheduler's): completion signaling is ordered *after* the
        # scheduler lock in every path that takes both.
        self._completion_cv = make_condition(
            None,
            "backend.completion",
            sanitizer=sanitizer,
        )
        self._t0 = time.perf_counter()

    def close(self) -> None:
        for workers in self._domain_workers:
            workers.close()
        self._xfer_pool.shutdown(wait=True)

    # -- handles & events --------------------------------------------------------

    def make_handle(self) -> threading.Event:
        return threading.Event()

    def event_done(self, event: HEvent) -> bool:
        return event.handle.is_set()

    def signal_completion(self, event: HEvent, when: float) -> None:
        with self._completion_cv:
            # Set under the condition lock: a waiter cannot check its
            # predicate and miss both the flag and the wake-up.
            event.handle.set()
            self._completion_cv.notify_all()

    # -- provisioning --------------------------------------------------------------

    def make_stream(self, stream) -> None:
        self._domain_workers[stream.domain].add_stream(stream.id)

    def on_stream_destroy(self, stream) -> None:
        self._domain_workers[stream.domain].drop_stream(stream.id)

    def make_instance(self, buf: Buffer, domain: int) -> np.ndarray:
        if domain == 0 and buf.host_array is not None:
            return buf.host_array.view(np.uint8).reshape(-1)
        return np.zeros(buf.nbytes, dtype=np.uint8)

    # -- execution ------------------------------------------------------------------

    def execute(self, action: Action) -> None:
        """Dispatch a dependence-free action onto its executor.

        Compute and sync actions queue on their stream's slot in the
        sink domain's worker set; transfers ride the DMA-like pool so
        they overlap with compute.
        """
        stream = action.stream
        assert stream is not None
        if action.kind is ActionKind.XFER:
            self._xfer_pool.submit(self._run, action)
        else:
            self._domain_workers[stream.domain].submit(stream.id, action)

    def execute_after(self, action: Action, delay: float) -> None:
        """Retry dispatch: re-run ``action`` after ``delay`` wall seconds.

        The backoff sleep rides the worker the action runs on. A
        compute goes to the *front* of its stream's slot, so the retry
        (backoff included) runs before anything dispatched behind it in
        the same stream.
        """
        stream = action.stream
        assert stream is not None
        if action.kind is ActionKind.XFER:
            self._xfer_pool.submit(self._run, action, delay)
        else:
            self._domain_workers[stream.domain].submit(
                stream.id, action, delay, front=True
            )

    def _run(self, action: Action, delay: float = 0.0) -> None:
        self._backoff(delay)
        start, error = self._prologue(action)
        if error is None:
            try:
                self._execute(action)
            except BaseException as exc:  # noqa: BLE001 - surfaced at next sync
                error = exc
        end = self.now()
        self._epilogue(action, start, end, error, end - start)

    @staticmethod
    def _backoff(delay: float) -> None:
        # time.sleep() may return before the full delay has elapsed
        # under coarse OS clocks / interrupted waits; re-check the
        # monotonic deadline and re-arm so a retry backoff never
        # dispatches early (the sim backend's virtual backoff is
        # exact, and the two must agree on ordering).
        if delay <= 0.0:
            return
        deadline = time.monotonic() + delay
        while delay > 0.0:
            time.sleep(delay)
            delay = deadline - time.monotonic()

    def _prologue(
        self, action: Action
    ) -> Tuple[float, Optional[BaseException]]:
        """Report the start and consult the fault injector.

        Returns the start time and the injected fault, if one fired —
        the action then goes straight to :meth:`_epilogue`.
        """
        start = self.now()
        self.runtime.scheduler.on_start(action, when=start)
        injector = self.runtime.fault_injector
        if injector is not None:
            try:
                injector.check(action)
            except BaseException as exc:  # noqa: BLE001 - surfaced at next sync
                return start, exc
        return start, None

    def _epilogue(
        self,
        action: Action,
        start: float,
        end: float,
        error: Optional[BaseException],
        ran_s: float,
    ) -> None:
        """Apply the action budget, trace, and report the completion.

        ``ran_s`` is how long the action itself executed — what
        ``action_timeout_s`` is judged on. It equals ``end - start``
        except where an executor queues started actions.
        """
        budget = self.runtime.config.action_timeout_s
        if error is None and budget is not None and ran_s > budget:
            # Python kernels cannot be preempted: enforce the per-action
            # budget post-hoc by failing the action once it returns.
            error = HStreamsTimedOut(
                f"{action.display!r} ran {ran_s:.6f} s, over the "
                f"action_timeout_s budget of {budget} s"
            )
        stream = action.stream
        assert stream is not None
        lane = (
            f"xfer:d{stream.domain}"
            if action.kind is ActionKind.XFER
            else stream.lane
        )
        self.runtime.tracer.record(
            lane, start, end, action.display, kind=_TRACE_KIND[action.kind]
        )
        self.runtime.scheduler.on_complete(action, when=end, error=error)

    def _resolve(self, action: Action, item: Any) -> Any:
        assert action.stream is not None
        domain = action.stream.domain
        if isinstance(item, Operand):
            return item.buffer.view(
                domain,
                item.offset,
                item.nbytes,
                dtype=item.dtype if item.dtype is not None else np.float64,
                shape=item.shape,
            )
        if isinstance(item, Buffer):
            return item.instance_array(domain)
        return item

    def _execute(self, action: Action) -> None:
        if action.kind is ActionKind.COMPUTE:
            spec = self.runtime.kernel(action.kernel)
            if spec.fn is None:
                raise HStreamsInternalError(
                    f"kernel {action.kernel!r} has no callable for the thread backend"
                )
            args = [self._resolve(action, a) for a in action.args]
            spec.fn(*args)
        elif action.kind is ActionKind.XFER:
            op = action.operands[0]
            sink = action.stream.domain  # type: ignore[union-attr]
            if sink == 0 or action.elided:
                # Host-as-target transfers alias away; elided transfers
                # would re-copy bytes the destination already holds.
                return
            src_dom, dst_dom = (
                (0, sink)
                if action.direction is XferDirection.SRC_TO_SINK
                else (sink, 0)
            )
            if action.src_domain is not None:
                # Collective forwarding hop: copy out of the peer
                # instance the chunk already landed in, not the host's.
                src_dom = action.src_domain
            src = op.buffer.instance_array(src_dom)[op.offset : op.end]
            dst = op.buffer.instance_array(dst_dom)[op.offset : op.end]
            np.copyto(dst, src)
        # SYNC: its dependences were satisfied before the scheduler
        # dispatched it; there is nothing left to execute.

    # -- waiting --------------------------------------------------------------------------

    def _raise_pending_error(self, scope: Optional[str] = None) -> None:
        """Surface run failures: first error raised, rest attached.

        Sticky — every synchronization keeps raising until the caller
        invokes ``HStreams.clear_failure()``. With ``scope`` given,
        only that namespace's failures surface (tenant isolation).
        """
        self.runtime.scheduler.failure.raise_pending(namespace=scope)

    def wait_events(
        self,
        events: list,
        wait_all: bool = True,
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> None:
        failure = self.runtime.scheduler.failure
        # A pending failure satisfies the wait immediately: the awaited
        # events may belong to dead producers and never fire (e.g. under
        # fail_fast). The failure is raised by _raise_pending_error after
        # the loop, exactly as the old poll loops surfaced it. A scoped
        # wait only unblocks on its own namespace's failures — but a
        # scoped tenant's events can only be cancelled by failures in
        # that same namespace (poisoning never crosses the border), so
        # the events still fire and the wait still returns.
        if scope is None:
            def failed() -> bool:
                return failure.failed
        else:
            def failed() -> bool:
                return failure.failed_in(scope)
        if wait_all:
            def satisfied() -> bool:
                return failed() or all(
                    ev.handle.is_set() for ev in events
                )
        else:
            def satisfied() -> bool:
                return (
                    failed()
                    or not events
                    or any(ev.handle.is_set() for ev in events)
                )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._completion_cv:
            while not satisfied():
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise HStreamsTimedOut(
                        "timed out waiting for "
                        f"{'all' if wait_all else 'any'} of "
                        f"{len(events)} event(s)"
                    )
                self._completion_cv.wait(remaining)
        self._raise_pending_error(scope)

    def wait_all(
        self, timeout: Optional[float] = None, scope: Optional[str] = None
    ) -> None:
        self.runtime.scheduler.wait_idle(timeout)
        self._raise_pending_error(scope)

    def now(self) -> float:
        return time.perf_counter() - self._t0
