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
  when operands don't conflict; streams of one domain overlap. At most
  ``device cores`` computes of a domain run at once and the set never
  starts more workers than ``min(live streams, device cores)`` for
  them, so creating or destroying a stream is a dictionary update and
  10 000 idle streams cost no thread;
* a card domain's transfers queue on one DMA lane per direction in the
  same worker set, mirroring the sim backend's one PCIe link per
  direction: a direction's copies run one at a time in readiness
  order and overlap with compute, and each busy lane may add one
  worker to the set. Host-domain transfers alias away and ride their
  stream's slot;
* the worker that reports a completion runs the first queue that
  completion readies in its own set, so a pipeline ``h2d -> compute ->
  d2h`` runs on one thread with no hand-off between its steps; kernels
  never claim work, so a kernel may enqueue and wait;
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
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.actions import Action, ActionKind, Operand, XferDirection
from repro.core.backend import Backend
from repro.core.buffer import Buffer
from repro.core.errors import HStreamsInternalError, HStreamsTimedOut
from repro.core.events import HEvent
from repro.core.sync import caller_locked, guarded_by, make_condition

__all__ = ["ThreadBackend"]

_TRACE_KIND = {
    ActionKind.COMPUTE: "compute",
    ActionKind.XFER: "transfer",
    ActionKind.SYNC: "sync",
}


class _Slot:
    """One queue in a domain's worker set: a stream's, or a DMA lane's.

    ``running`` is set while the slot is queued for, claimed by, or held
    by a worker — at most one worker at a time, which is what serializes
    a stream's computes and a lane's copies. ``pending`` holds its
    dispatched ``(action, delay)`` pairs in the order they will run.
    ``lane`` marks a DMA lane, which does not count against the
    device's cores. The mutable fields are guarded by the owning
    :class:`_DomainWorkers` lock.
    """

    __slots__ = ("running", "pending", "lane")

    def __init__(self, lane: bool = False) -> None:
        self.running = False
        self.pending: Deque[Tuple[Action, float]] = deque()
        self.lane = lane


class _Flag:
    """An action's completion flag.

    Set under the backend's completion condition, which is what every
    waiter blocks on; waiters only ever read it.
    """

    __slots__ = ("_set",)

    def __init__(self) -> None:
        self._set = False

    def set(self) -> None:
        self._set = True

    def is_set(self) -> bool:
        return self._set


@guarded_by(
    "_cv", "_slots", "_ready", "_ready_lanes", "_computing", "_idle",
    "_waking", "_threads", "_members", "_claims", "_closing",
)
class _DomainWorkers:
    """One domain's executor: a bounded worker set draining its queues.

    The queues are one slot per stream of the domain (computes, syncs,
    and host-domain transfers, which alias away) and, on a card domain,
    one DMA lane per transfer direction — the thread-side mirror of the
    sim backend's one PCIe link per direction. Any worker runs any
    queue. A worker takes a ready queue (lanes first), runs one of its
    pending actions outside the lock, then — in one lock hold — puts
    the queue back behind the other ready ones if it has more work and
    takes the next, which is its own again when nothing else waits: no
    sleep and no wake-up between a queue's consecutive actions.

    **The completing worker takes what it readied.** While a worker
    reports a completion (:meth:`open_claim`, then the scheduler's
    ``on_complete``), the first queue that completion makes ready in
    this set is not handed to another worker: the finishing worker
    takes it on its next loop turn. Later queues readied by the same
    completion wake workers as usual. A submit from inside a running
    kernel never claims, so a kernel that enqueues and waits still
    completes. A pipeline ``h2d -> compute -> d2h`` thus runs on one
    worker with no wake-up between its steps.

    A queue the worker leaves behind with work still pending — the
    lane whose copy readied the kernel, say — is handed on as usual,
    so its next action runs beside the claimed one rather than after
    it, and a claimed kernel may block on it.

    **Bounds.** At most ``cores`` workers run computes at once, and a
    new worker starts only when a queue is runnable, every idle worker
    has been woken, and the set is smaller than ``min(live streams,
    cores)`` plus the number of busy lanes — so the set never exceeds
    ``cores + 2`` threads, and a domain with no transfers keeps the
    ``min(live streams, cores)`` bound. A kernel may block on a kernel
    of another stream of the same domain as long as the domain has no
    more streams than cores: every stream can then hold a worker of its
    own. Workers are daemons and idle until :meth:`close`.

    ``_cv``'s lock is a leaf: nothing else is acquired under it, and it
    is never held while an action runs or reports to the scheduler.
    """

    def __init__(
        self,
        domain: int,
        cores: int,
        lanes: bool,
        run: Callable[[Action, float], None],
        sanitizer=None,
    ) -> None:
        self._domain = domain
        self._cores = cores
        self._run = run
        self._cv = make_condition(
            None, f"backend.workers.d{domain}", sanitizer=sanitizer
        )
        #: The DMA lanes by direction (card domains only). Fixed at
        #: construction; the slots' fields are guarded like any slot's.
        self._lanes: Dict[XferDirection, _Slot] = (
            {d: _Slot(lane=True) for d in XferDirection} if lanes else {}
        )
        self._slots: Dict[int, _Slot] = {}
        #: Ready stream slots and ready lanes, each in readiness order.
        self._ready: Deque[_Slot] = deque()
        self._ready_lanes: Deque[_Slot] = deque()
        #: Workers holding a stream slot (at most ``cores``).
        self._computing = 0
        #: Workers waiting on ``_cv`` that no wake-up has claimed yet.
        self._idle = 0
        #: Workers woken or started that have not yet looked for work.
        self._waking = 0
        self._threads: List[threading.Thread] = []
        #: Thread ids of this set's workers.
        self._members: Set[int] = set()
        #: Open claim windows by worker thread id: the slot the
        #: worker's completion readied first, or None until one does.
        self._claims: Dict[int, Optional[_Slot]] = {}
        self._closing = False

    def add_stream(self, stream_id: int) -> None:
        with self._cv:
            self._slots[stream_id] = _Slot()

    def drop_stream(self, stream_id: int) -> None:
        with self._cv:
            self._slots.pop(stream_id, None)

    def submit(
        self, action: Action, delay: float = 0.0, front: bool = False
    ) -> None:
        """Queue ``action`` on its lane (a card transfer) or its
        stream's slot; ``front`` puts it ahead of everything already
        pending there (a retry)."""
        stream = action.stream
        assert stream is not None
        with self._cv:
            if action.kind is ActionKind.XFER and self._lanes:
                slot = self._lanes[action.direction]
            else:
                slot = self._slots[stream.id]
            if front:
                slot.pending.appendleft((action, delay))
            else:
                slot.pending.append((action, delay))
            if slot.running:
                return
            slot.running = True
            me = threading.get_ident()
            if me in self._claims and self._claims[me] is None:
                self._claims[me] = slot
                return
            (self._ready_lanes if slot.lane else self._ready).append(slot)
            started = self._wake()
        for thread in started:
            thread.start()

    def open_claim(self) -> None:
        """Open the calling worker's claim window (see the class doc).

        No-op on any other thread — a completion pump, or another
        domain's worker. The window closes at the worker's next loop
        turn, which is the first thing it does after the completion.
        """
        me = threading.get_ident()
        with self._cv:
            if me in self._members:
                self._claims[me] = None

    @caller_locked("_cv")
    def _runnable(self) -> int:
        """Ready queues a worker could take right now."""
        return len(self._ready_lanes) + min(
            len(self._ready), self._cores - self._computing
        )

    @caller_locked("_cv")
    def _wake(self) -> List[threading.Thread]:
        """Wake or create a worker for each runnable queue none is
        already on its way to; returns the threads to start once the
        lock is released."""
        started: List[threading.Thread] = []
        while self._runnable() > self._waking:
            if self._idle:
                self._idle -= 1
                self._cv.notify()
            elif len(self._threads) < min(
                len(self._slots), self._cores
            ) + sum(lane.running for lane in self._lanes.values()):
                thread = threading.Thread(
                    target=self._work,
                    name=f"hstr-d{self._domain}-w{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                started.append(thread)
            else:
                break
            self._waking += 1
        return started

    @caller_locked("_cv")
    def _put_back(self, slot: _Slot) -> bool:
        """Release ``slot``; True if it went back to the ready queues."""
        if not slot.lane:
            self._computing -= 1
        if slot.pending:
            (self._ready_lanes if slot.lane else self._ready).append(slot)
            return True
        slot.running = False
        return False

    @caller_locked("_cv")
    def _take(self, claimed: Optional[_Slot]) -> Optional[_Slot]:
        """The queue to run next: the claimed one if it may run now,
        else a ready lane, else a ready slot while cores are free."""
        if claimed is not None:
            if claimed.lane:
                return claimed
            if self._computing < self._cores:
                self._computing += 1
                return claimed
            self._ready.append(claimed)
        if self._ready_lanes:
            return self._ready_lanes.popleft()
        if self._ready and self._computing < self._cores:
            self._computing += 1
            return self._ready.popleft()
        return None

    def _work(self) -> None:
        me = threading.get_ident()
        slot: Optional[_Slot] = None
        while True:
            with self._cv:
                left: Optional[_Slot] = None
                if slot is None:  # first turn: _wake counted us waking
                    self._members.add(me)
                    self._waking -= 1
                elif self._put_back(slot):
                    left = slot
                claimed = self._claims.pop(me, None)
                slot = self._take(claimed)
                kept = slot is not None and slot is claimed
                while slot is None:
                    if self._closing:
                        return
                    self._idle += 1
                    self._cv.wait()
                    self._waking -= 1
                    slot = self._take(None)
                action, delay = slot.pending.popleft()
                if kept and left is None:
                    # Nothing left behind, nothing to hand on.
                    started: List[threading.Thread] = []
                else:
                    started = self._wake()
            for thread in started:
                thread.start()
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
            # Every idle worker is woken; keep the count consistent.
            self._waking += self._idle
            self._idle = 0
            self._cv.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join()


class ThreadBackend(Backend):
    """Real-execution backend on worker threads."""

    # -- lifecycle -------------------------------------------------------------

    def attach(self, runtime) -> None:
        self.runtime = runtime
        sanitizer = getattr(runtime, "sanitizer", None)
        #: One worker set per domain, indexed by domain.
        self._domain_workers = [
            _DomainWorkers(
                dom.index,
                dom.device.total_cores,
                dom.index != 0,
                self._run,
                sanitizer,
            )
            for dom in runtime.domains
        ]
        if sanitizer is not None:
            for workers in self._domain_workers:
                sanitizer.instrument(workers)
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

    # -- handles & events --------------------------------------------------------

    def make_handle(self) -> _Flag:
        return _Flag()

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
        """Dispatch a dependence-free action onto its domain's workers.

        A card transfer queues on its direction's DMA lane, so it
        overlaps with compute; everything else queues on its stream's
        slot.
        """
        stream = action.stream
        assert stream is not None
        self._domain_workers[stream.domain].submit(action)

    def execute_after(self, action: Action, delay: float) -> None:
        """Retry dispatch: re-run ``action`` after ``delay`` wall seconds.

        The backoff sleep rides the worker the action runs on. The
        action goes to the *front* of its slot or lane, so the retry
        (backoff included) runs before anything dispatched behind it
        there.
        """
        stream = action.stream
        assert stream is not None
        self._domain_workers[stream.domain].submit(action, delay, front=True)

    def _run(self, action: Action, delay: float = 0.0) -> None:
        self._backoff(delay)
        start = self.now()
        error: Optional[BaseException] = None
        try:
            self._start(action, start)
            if self._execute(action):
                return  # another thread reports the completion
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

    def _epilogue(
        self,
        action: Action,
        start: float,
        end: float,
        error: Optional[BaseException],
        ran_s: float,
    ) -> None:
        """Trace the action, open the worker's claim window, and finish.

        ``ran_s`` is how long the action itself executed, which
        :meth:`_finish` judges the budget on. It equals ``end - start``
        except where an executor queues started actions.
        """
        stream = action.stream
        assert stream is not None
        tracer = self.runtime.tracer
        if tracer.enabled:
            lane = (
                f"xfer:d{stream.domain}"
                if action.kind is ActionKind.XFER
                else stream.lane
            )
            tracer.record(
                lane, start, end, action.display, kind=_TRACE_KIND[action.kind]
            )
        self._domain_workers[stream.domain].open_claim()
        self._finish(action, end, error, ran_s)

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

    def _execute(self, action: Action) -> Optional[bool]:
        """Run a started action on this thread.

        A true return means the action is still running elsewhere and
        its completion will be reported from there (the process
        backend's shipped computes); here it always ran to the end.
        """
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
