"""The backend-agnostic action scheduler.

One scheduling core drives both backends (paper layering: hStreams above
COI above SCIF). The scheduler owns everything between ``enqueue`` and
``execute``:

* **edge registration** — intra-stream dependences from the per-stream
  window view (operand-conflict relaxation, or strict FIFO as a policy),
  plus explicit cross-stream event waits;
* **incremental ready-set dispatch** — an action is handed to the
  executor the moment its last dependence finishes, never rescanned;
* **completion propagation** — a finishing action decrements its
  dependents' wait counts, retires its node and its stream-window entry
  (O(1)), and dispatches whatever became ready;
* **cycle/deadlock detection** — the graph enforces acyclicity on edge
  registration and can name the blocked actions when nothing can make
  progress;
* **lifecycle observability** — per-action enqueue/ready/start/end
  timestamps, dependence-stall and dispatch-stall totals, and per-stream
  queue-depth metrics, exported through :meth:`metrics` and the runtime
  :class:`~repro.sim.trace.Tracer`;
* **observer hooks** — :class:`SchedulerObserver` instances registered
  in :attr:`Scheduler.observers` see every admission (with its resolved
  dependence edges), completion, host synchronization, and buffer
  lifecycle transition. This is the attachment point for the hazard
  analyzer: :mod:`repro.analysis` uses it both for whole-program capture
  (``HStreams(capture_only=True)``) and for the online checker that runs
  the same happens-before rules incrementally during real execution.

Backends are pure executors: they implement
``execute(action) -> completion`` for actions whose dependences the
scheduler has already satisfied, and report back through
:meth:`on_start` / :meth:`on_complete`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionKind
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsCancelled,
    HStreamsQuotaExceeded,
    HStreamsTimedOut,
    is_transient,
)
from repro.core.events import HEvent
from repro.core.graph import ActionGraph, ActionNode, ActionRecord, ActionState
from repro.core.sites import user_site
from repro.core.sync import caller_locked, guarded_by, make_condition, make_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action
    from repro.core.buffer import Buffer
    from repro.core.runtime import HStreams
    from repro.core.stream import Stream

__all__ = ["FailureState", "Scheduler", "SchedulerObserver", "StreamStats"]

#: Recognized values of ``HStreams(failure_policy=...)``.
FAILURE_POLICIES = ("poison", "fail_fast", "retry")

#: Bound once for the admission loop: on Python 3.11 a member lookup
#: such as ``ActionState.READY`` is a ~0.1 us class-attribute call.
_READY = ActionState.READY

#: Shared empty dangling-wait list for the common enqueue (no explicit
#: waits claimed): handed to observers read-only, never mutated.
_NO_DANGLING: List["HEvent"] = []


@guarded_by("_lock", "errors", "observed", "_namespaces")
class FailureState:
    """Thread-safe ledger of every error a run has observed.

    Backends and the scheduler :meth:`record` errors as actions fail;
    host-facing wait paths call :meth:`raise_pending`, which raises the
    *first* error with every subsequent one attached (as an ``errors``
    attribute, plus ``add_note`` summaries where the interpreter
    supports them) — later failures are never silently dropped. The
    state is *sticky*: once failed, every synchronization keeps raising
    until :meth:`clear` (``HStreams.clear_failure()``) is called.

    Every entry carries the *namespace* of the stream whose action
    failed (empty for the classic single-user runtime). Namespace-scoped
    queries (``failed_in``/``raise_pending(namespace=...)``/
    ``clear(namespace=...)``) see only matching entries — the isolation
    contract of the multi-tenant service tier: tenant B's waits never
    raise tenant A's errors. Unscoped calls see everything, exactly as
    before namespaces existed.
    """

    def __init__(self, sanitizer=None) -> None:
        self._lock = make_lock("failure", sanitizer=sanitizer)
        #: Every recorded error, in completion order.
        self.errors: List[BaseException] = []
        #: Parallel to :attr:`errors`: the failing action's stream
        #: namespace ("" outside the service tier).
        self._namespaces: List[str] = []
        #: Whether :meth:`raise_pending` has surfaced the failure to the
        #: host at least once (``fini`` uses this to avoid re-raising an
        #: error the caller already handled).
        self.observed = False

    @property
    def failed(self) -> bool:
        """Whether any error has been recorded (and not cleared)."""
        with self._lock:
            return bool(self.errors)

    def failed_in(self, namespace: str) -> bool:
        """Whether an error was recorded against ``namespace``."""
        with self._lock:
            return namespace in self._namespaces

    def snapshot(self) -> Tuple[List[BaseException], bool]:
        """A consistent ``(errors, observed)`` pair for host-side
        inspection (``fini``, ``failure_errors``)."""
        with self._lock:
            return list(self.errors), self.observed

    def errors_in(self, namespace: Optional[str]) -> List[BaseException]:
        """Recorded errors, filtered to ``namespace`` (None = all)."""
        with self._lock:
            if namespace is None:
                return list(self.errors)
            return [
                err
                for err, ns in zip(self.errors, self._namespaces)
                if ns == namespace
            ]

    def record(self, error: BaseException, namespace: str = "") -> None:
        """Append a terminal action failure to the ledger."""
        with self._lock:
            self.errors.append(error)
            self._namespaces.append(namespace)

    def raise_pending(self, namespace: Optional[str] = None) -> None:
        """Raise the first recorded error, with the rest attached.

        No-op when nothing failed. Does *not* clear the ledger — the
        runtime stays marked failed until explicitly cleared. With
        ``namespace`` given, only errors recorded against that exact
        namespace are considered (and attached): a scoped wait stays
        blind to other tenants' failures.
        """
        with self._lock:
            if namespace is None:
                pending = self.errors
            else:
                pending = [
                    err
                    for err, ns in zip(self.errors, self._namespaces)
                    if ns == namespace
                ]
            if not pending:
                return
            first = pending[0]
            # The global observed flag drives fini()'s "already handled"
            # suppression, which re-raises self.errors[0]; a scoped
            # raise therefore only counts when it surfaced that error.
            if first is self.errors[0]:
                self.observed = True
            first.errors = list(pending)  # type: ignore[attr-defined]
            if hasattr(first, "add_note"):  # pragma: no branch
                if len(pending) > 1 and not getattr(
                    first, "_hstreams_noted", False
                ):
                    first._hstreams_noted = True  # type: ignore[attr-defined]
                    for extra in pending[1:]:
                        first.add_note(
                            f"also failed: {type(extra).__name__}: {extra}"
                        )
                # Note (once) where in user code the failure first
                # surfaced: actions fail on worker threads, so the
                # original traceback never points at the program.
                if not getattr(first, "_hstreams_site_noted", False):
                    site = user_site()
                    if site is not None:
                        first._hstreams_site_noted = True  # type: ignore[attr-defined]
                        first.add_note(f"surfaced at {site[0]}:{site[1]}")
            raise first

    def clear(self, namespace: Optional[str] = None) -> List[BaseException]:
        """Reset to the no-failure state; returns the dropped errors.

        With ``namespace`` given, only that namespace's entries drop —
        a tenant acknowledging its own failure leaves every other
        tenant's ledger (and the global observed flag) untouched unless
        nothing else remains.
        """
        with self._lock:
            if namespace is None:
                dropped, self.errors = self.errors, []
                self._namespaces = []
                self.observed = False
                return dropped
            dropped = []
            kept_errors: List[BaseException] = []
            kept_ns: List[str] = []
            for err, ns in zip(self.errors, self._namespaces):
                if ns == namespace:
                    dropped.append(err)
                else:
                    kept_errors.append(err)
                    kept_ns.append(ns)
            self.errors = kept_errors
            self._namespaces = kept_ns
            if not self.errors:
                self.observed = False
            return dropped


class SchedulerObserver:
    """Hook interface over scheduler and runtime lifecycle events.

    Subclass and append to :attr:`Scheduler.observers`. All callbacks
    are invoked with the scheduler lock held (keep them fast, do not
    call back into the runtime) and default to no-ops, so observers
    override only what they need. The hazard analyzer's capture recorder
    and online checker are the two in-tree observers.
    """

    def on_enqueue(
        self,
        action: "Action",
        deps: List["Action"],
        dangling: List[HEvent],
    ) -> None:
        """``action`` was admitted. ``deps`` are the live actions it was
        ordered after (explicit event waits plus intra-stream policy
        dependences); ``dangling`` are waits this observer claimed via
        :meth:`on_dangling_wait`."""

    def on_action_complete(self, action: "Action", record: ActionRecord) -> None:
        """``action`` reached a terminal state."""

    def on_dangling_wait(self, action: "Action", event: HEvent) -> bool:
        """``action`` waits on an incomplete event no live node owns.

        Return True to claim (record) the dangling wait; when no
        observer claims it the scheduler raises, as it always did.
        """
        return False

    def on_host_sync(
        self,
        kind: str,
        stream: Optional["Stream"] = None,
        events: Sequence[HEvent] = (),
    ) -> None:
        """The source thread blocked: ``kind`` is one of ``event_wait``,
        ``stream_synchronize``, ``thread_synchronize``."""

    def on_stream_create(self, stream: "Stream") -> None:
        """A stream was created."""

    def on_stream_destroy(self, stream: "Stream") -> None:
        """A stream was destroyed (after draining)."""

    def on_buffer(self, kind: str, buf: "Buffer", domain: Optional[int] = None) -> None:
        """Buffer lifecycle: ``kind`` is ``create``, ``destroy``, or
        ``evict`` (with ``domain`` set for evictions)."""


class StreamStats:
    """Per-stream scheduling aggregates (live + retired)."""

    __slots__ = (
        "stream",
        "depth",
        "max_depth",
        "completed",
        "failed",
        "cancelled",
        "retried",
        "dep_edges",
        "dep_stall_s",
        "dispatch_stall_s",
        "exec_s",
        "destroyed",
    )

    def __init__(self, stream: "Stream"):
        self.stream = stream
        #: Current number of in-flight actions in the stream.
        self.depth = 0
        #: High-water mark of :attr:`depth`.
        self.max_depth = 0
        self.completed = 0
        self.failed = 0
        #: Actions poisoned into CANCELLED by a failed producer.
        self.cancelled = 0
        #: Retry attempts consumed under ``failure_policy="retry"``.
        self.retried = 0
        #: Graph edges wired into this stream's actions at admission
        #: (live producers only) — each is resolved once and decremented
        #: once, so this is the per-action cost the dependence scan's
        #: edge reduction exists to shrink.
        self.dep_edges = 0
        self.dep_stall_s = 0.0
        self.dispatch_stall_s = 0.0
        self.exec_s = 0.0
        #: Whether the stream has been torn down; its stats survive in
        #: the final :meth:`Scheduler.metrics` snapshot regardless.
        self.destroyed = False

    @property
    def enqueued(self) -> int:
        """Actions admitted into the stream: the finished ones plus the
        in-flight :attr:`depth` (admission keeps no counter of its own)."""
        return self.completed + self.failed + self.cancelled + self.depth

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view for :meth:`Scheduler.metrics`."""
        window = self.stream.window
        return {
            "name": self.stream.name,
            "lane": self.stream.lane,
            "namespace": self.stream.namespace,
            "dep_scan_candidates": window.scan_candidates,
            "dep_scan_comparisons": window.scan_comparisons,
            "depth": self.depth,
            "max_depth": self.max_depth,
            "enqueued": self.enqueued,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "retried": self.retried,
            "dep_edges": self.dep_edges,
            "dep_stall_s": self.dep_stall_s,
            "dispatch_stall_s": self.dispatch_stall_s,
            "exec_s": self.exec_s,
            "destroyed": self.destroyed,
        }


@guarded_by(
    "_lock",
    "_outstanding",
    "_streams",
    "_records",
    "_totals",
    "_poisoned",
    "_by_kind",
    "observers",
    "namespace_quotas",
    "_ns_inflight",
)
class Scheduler:
    """Shared scheduling core in front of a pluggable executor backend."""

    def __init__(self, runtime: "HStreams"):
        self.runtime = runtime
        #: The owning runtime's failure policy (defaults to poison),
        #: read once: ``HStreams`` fixes it at construction.
        self.failure_policy: str = getattr(runtime, "failure_policy", "poison")
        #: The runtime's rtsan sanitizer, or None (the common case).
        #: Checked on the hot path as a single attribute test.
        self._sanitizer = getattr(runtime, "sanitizer", None)
        # Reentrant: a backend may finish one action while the host
        # thread is enqueueing another; the sim backend completes from
        # inside the engine loop which may nest through event callbacks.
        # no_block: sleeping while holding this lock stalls admission
        # and completion on every thread (rtsan blocking-under-lock).
        self._lock = make_lock(
            "scheduler",
            reentrant=True,
            no_block=True,
            sanitizer=self._sanitizer,
        )
        self._idle = make_condition(self._lock, "scheduler.idle")
        self.graph = ActionGraph(lock=self._lock)
        self._outstanding = 0
        self._streams: Dict[int, StreamStats] = {}
        history = int(runtime.config.metrics_history)
        self._records: Deque[ActionRecord] = deque(maxlen=history if history > 0 else 0)
        self._totals = {
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "retried": 0,
            "dep_stall_s": 0.0,
            "dispatch_stall_s": 0.0,
            "exec_s": 0.0,
        }
        #: Run-wide failure ledger; host wait paths raise through it.
        self.failure = FailureState(sanitizer=self._sanitizer)
        #: Failed/cancelled actions (by seq) with their errors, so work
        #: enqueued *after* a failure deterministically poisons too when
        #: it depends on — or operand-conflicts with — a dead producer.
        #: Cleared by :meth:`clear_failure`.
        self._poisoned: Dict[int, Tuple["Action", BaseException]] = {}
        self._by_kind = {
            kind.value: {"count": 0, "dep_stall_s": 0.0, "exec_s": 0.0}
            for kind in ActionKind
        }
        #: Registered :class:`SchedulerObserver` hooks (capture recorder,
        #: online checker). Appended to directly; order is call order.
        self.observers: List[SchedulerObserver] = []
        #: Per-namespace hard admission quotas (max in-flight actions);
        #: set via :meth:`set_namespace_quota`. Streams in the empty
        #: namespace are never quota-checked.
        self.namespace_quotas: Dict[str, int] = {}
        #: Live in-flight action count per (non-empty) namespace; the
        #: counter behind the quota check and the per-tenant metrics.
        self._ns_inflight: Dict[str, int] = {}

    # -- stream registry ------------------------------------------------------

    def on_stream_create(self, stream: "Stream") -> None:
        """Start tracking scheduling metrics for a new stream."""
        with self._lock:
            self._streams[stream.id] = StreamStats(stream)
            if self._sanitizer is not None:
                # The window's live set and conflict index are mutated
                # only under this lock; wire the guard and instrument.
                stream.window._lock = self._lock
                self._sanitizer.instrument(stream.window)
            for obs in self.observers:
                obs.on_stream_create(stream)

    def on_stream_destroy(self, stream: "Stream") -> None:
        """A (drained) stream was torn down.

        Mirrors :meth:`on_stream_create` so metrics, the tracer, and
        the capture recorder see teardown; the stream's
        :class:`StreamStats` are kept, flagged ``destroyed``.
        """
        with self._lock:
            stats = self._streams[stream.id]
            stats.destroyed = True
            self.runtime.tracer.counter(
                f"sched:{stream.lane}", self.runtime.backend.now(), stats.depth
            )
            for obs in self.observers:
                obs.on_stream_destroy(stream)

    # -- admission ------------------------------------------------------------

    def enqueue(self, action: "Action") -> HEvent:
        """Admit an action: wire its dependence edges and dispatch if ready.

        ``action.deps`` may already hold explicit cross-stream event
        waits (``event_stream_wait``); intra-stream dependences come from
        the stream's window view under its FIFO policy, plus
        :meth:`_resolve_waits`. A batch of one through
        :meth:`_admit_and_dispatch`. Returns the completion event.
        """
        self._admit_and_dispatch((action,), None)
        return action.completion

    def enqueue_precomputed(
        self, action: "Action", dep_actions: Sequence["Action"]
    ) -> HEvent:
        """Admit an action whose producers are already known.

        The collectives path: ``dep_actions`` are the producers the
        planner computed, so no window scan runs. Producers that already
        finished resolve to no live node, exactly as satisfied
        dependences do on the enqueue path. A batch of one through
        :meth:`_admit_and_dispatch`.
        """
        self._admit_and_dispatch((action,), (dep_actions,))
        return action.completion

    def admit_instance(self, instance) -> None:
        """Admit a whole replayed graph instance as one batch.

        ``instance.dep_lists`` carries each clone's template producers,
        so no window scan runs; the whole instance is admitted or
        rejected in one :meth:`_admit_and_dispatch` lock hold.
        """
        self._admit_and_dispatch(instance.actions, instance.dep_lists)

    def _admit_and_dispatch(
        self,
        actions: Sequence["Action"],
        dep_lists: Optional[Sequence[Sequence["Action"]]],
    ) -> None:
        """The one admission body behind enqueue, collectives and replay.

        One lock hold over the batch. fail_fast and quota are decided
        once per namespace before any node exists
        (:meth:`_check_admission`), so a rejected batch admits nothing.
        Then, per action in order: its producers (``dep_lists[i]``, or
        the window scan plus explicit waits when ``dep_lists`` is None;
        ``dep_lists`` is None only for a single enqueue),
        its admission-poison check, a graph node edged after its live
        producers, a completion event, its window entry, the stats and a
        ``sched:`` depth sample, and the observer callbacks. Completions
        serialize on the lock, so no executor retires work mid-batch;
        the ready actions dispatch after the lock drops.
        """
        backend = self.runtime.backend
        ready: List["Action"] = []
        with self._lock:
            if self.namespace_quotas or self.failure_policy == "fail_fast":
                self._check_admission(actions)
            now = backend.now()
            make_handle = backend.make_handle
            graph_add = self.graph.add
            observers = self.observers
            streams = self._streams
            poisoned = self._poisoned
            tracer = self.runtime.tracer
            traced = tracer.enabled
            if dep_lists is None:
                dep_lists = (None,) * len(actions)
            for action, deps in zip(actions, dep_lists):
                stream = action.stream
                if deps is None:
                    deps = stream.window.deps_for(action)
                    dangling = (
                        self._resolve_waits(action, deps)
                        if action.deps
                        else _NO_DANGLING
                    )
                else:
                    dangling = _NO_DANGLING
                # Work admitted *after* a producer failed must poison
                # exactly like work admitted before: failed actions have
                # already left the live graph and the stream window, so
                # the edges alone would happily run it on garbage.
                poison = self._admission_poison(action, deps) if poisoned else None
                node = graph_add(action, now, deps)
                action.completion = HEvent(backend, make_handle(), action)
                stream.window.add(action)
                stats = streams[stream.id]
                stats.dep_edges += node.waiting
                depth = stats.depth + 1
                stats.depth = depth
                if depth > stats.max_depth:
                    stats.max_depth = depth
                if stream.namespace:
                    self._ns_inflight[stream.namespace] = (
                        self._ns_inflight.get(stream.namespace, 0) + 1
                    )
                self._outstanding += 1
                if traced:
                    tracer.counter(f"sched:{stream.lane}", now, depth)
                for obs in observers:
                    obs.on_enqueue(action, deps, dangling)
                if poison is not None:
                    self._cancel_subgraph(node, poison, now)
                elif node.waiting == 0:
                    node.transition(_READY)
                    node.t_ready = now
                    ready.append(action)
            if self._sanitizer is not None:
                self._sanitizer.check_scheduler(self)
        execute = backend.execute
        for action in ready:
            execute(action)

    @caller_locked("_lock")
    def _check_admission(self, actions: Sequence["Action"]) -> None:
        """Refuse a whole batch under fail_fast or a full namespace quota.

        Lock held, before any node exists, once per namespace the batch
        touches. fail_fast raises a failure pending in that namespace
        (any failure, for the empty namespace): one tenant's fail_fast
        never rejects another's work. A quota rejects the batch when
        admitting it would take its namespace past the limit.
        """
        counts: Dict[str, int] = {}
        for action in actions:
            ns = action.stream.namespace
            counts[ns] = counts.get(ns, 0) + 1
        fail_fast = self.failure_policy == "fail_fast"
        for ns, count in counts.items():
            if fail_fast:
                self.failure.raise_pending(namespace=ns or None)
            limit = self.namespace_quotas.get(ns) if ns else None
            inflight = self._ns_inflight.get(ns, 0)
            if limit is not None and inflight + count > limit:
                raise HStreamsQuotaExceeded(
                    f"namespace {ns!r} has {inflight} action(s) in flight "
                    f"against a quota of {limit}; admitting {count} more "
                    "would exceed it — synchronize or defer first"
                )

    def set_namespace_quota(self, namespace: str, limit: Optional[int]) -> None:
        """Cap a namespace's in-flight actions at ``limit`` (None clears).

        The hard backstop behind the service tier's admission window:
        an enqueue into a stream of this namespace raises
        :class:`~repro.core.errors.HStreamsQuotaExceeded` once ``limit``
        actions are in flight, instead of growing the window unboundedly.
        """
        if not namespace:
            raise HStreamsBadArgument("namespace quotas need a non-empty namespace")
        if limit is not None and limit < 1:
            raise HStreamsBadArgument(f"quota for {namespace!r} must be >= 1")
        with self._lock:
            if limit is None:
                self.namespace_quotas.pop(namespace, None)
            else:
                self.namespace_quotas[namespace] = limit

    def namespace_inflight(self, namespace: str) -> int:
        """Current in-flight action count of ``namespace``."""
        with self._lock:
            return self._ns_inflight.get(namespace, 0)

    def window_producers(self, stream, probe: "Action") -> List["Action"]:
        """Live in-window producers a hypothetical ``probe`` would follow.

        The collectives planner admits its chunk actions through
        :meth:`enqueue_precomputed`, which skips the window scan — so it
        asks here, once per participating stream over the collective's
        *whole* footprint, for the external ordering a normal enqueue
        would have discovered, and threads the result into its first
        chunk on that stream. One scan per stream per collective instead
        of one per chunk; the scan counters account it like any other.
        """
        with self._lock:
            return list(stream.window.deps_for(probe))

    @caller_locked("_lock")
    def _resolve_waits(self, action: "Action", deps: List["Action"]) -> List[HEvent]:
        """Append an enqueued action's explicit event waits to ``deps``,
        its window-scan producers.

        Lock held, before the node exists, so a rejected wait leaves no
        zombie node behind. ``deps`` ends up holding every producer
        action, live or finished (the graph edges only the live ones);
        returns the dangling waits an observer claimed. The scan's list
        is ours, so it doubles as the observer-facing producer list;
        ``action.deps`` stays the explicit event waits.
        """
        dangling: List[HEvent] = _NO_DANGLING
        # Explicit waits may duplicate each other or a window
        # dependence; the common enqueue has none, so the dedup set is
        # built only on this path. ``deps`` keeps every waited action,
        # including already-completed ones (capture mode completes
        # everything instantly, so the live graph alone would record no
        # edges at all).
        seen = {prev.seq for prev in deps}
        for ev in action.deps:
            dep = ev.action
            if dep is not None:
                if dep.seq in seen:
                    continue
                seen.add(dep.seq)
                deps.append(dep)
            if self.graph.get(dep) is None and not ev.is_complete():
                # An observer (the capture recorder) may claim the
                # dangling wait as a diagnostic instead of an
                # error. Every observer gets to see it (no
                # short-circuit).
                claims = [
                    obs.on_dangling_wait(action, ev)
                    for obs in self.observers
                ]
                if any(claims):
                    if dangling is _NO_DANGLING:
                        dangling = []
                    dangling.append(ev)
                    continue
                raise HStreamsBadArgument(
                    f"{action.display!r} waits on an event unknown to "
                    "this runtime's scheduler; cross-runtime event "
                    "dependences are not supported"
                )
        return dangling

    @caller_locked("_lock")
    def _admission_poison(
        self, action: "Action", dep_actions: Sequence["Action"]
    ) -> Optional[BaseException]:
        """Root error poisoning ``action`` at admission, if any.

        Called with the lock held, before the node exists. An action is
        poisoned on arrival when (under the poison/retry policies) one
        of its resolved producers — an explicit event wait, a window
        dependence, or a replayed template edge — is a failed/cancelled
        action, or its operands conflict with one: the ordering edge
        the dead producer would have supplied.
        """
        if self.failure_policy == "fail_fast":
            return None
        for dep in dep_actions:
            if dep.seq in self._poisoned:
                return self._poisoned[dep.seq][1]
        for dead, error in self._poisoned.values():
            if dead.conflicts_with(action):
                return error
        return None

    # -- executor callbacks --------------------------------------------------------

    def on_start(self, action: "Action", when: Optional[float] = None) -> None:
        """Executor callback: real (or virtual) execution began."""
        with self._lock:
            node = self.graph.get(action)
            if node is None:  # already retired (defensive)
                return
            node.transition(ActionState.RUNNING)
            node.t_start = when if when is not None else self.runtime.backend.now()

    def on_complete(
        self,
        action: "Action",
        when: Optional[float] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Executor callback: the action finished (or failed).

        On success: signals the completion event, retires the node and
        its stream window entry, folds lifecycle timings into the
        metrics, and dispatches every dependent whose last dependence
        this was.

        On failure the configured policy applies. Under ``"retry"``, a
        transient error (:func:`~repro.core.errors.is_transient`) with
        attempts remaining re-dispatches the action after capped
        exponential backoff — the node stays live and its completion
        event does not fire. A terminal failure records the error in
        :attr:`failure`, then transitively **cancels** the dependents
        (they never run; their completion events fire with a
        :class:`~repro.core.errors.HStreamsCancelled` chained to the
        root error). ``"fail_fast"`` additionally cancels every other
        still-ENQUEUED action in the graph.
        """
        backend = self.runtime.backend
        to_dispatch: List["Action"] = []
        retry_delay: Optional[float] = None
        with self._lock:
            node = self.graph.get(action)
            if node is None:  # double completion (defensive)
                return
            end = when if when is not None else backend.now()
            if error is not None:
                cfg = self.runtime.config
                if (
                    self.failure_policy == "retry"
                    and is_transient(error)
                    and node.attempts < cfg.retry_limit
                ):
                    node.attempts += 1
                    retry_delay = min(
                        cfg.retry_backoff_s
                        * cfg.retry_backoff_factor ** (node.attempts - 1),
                        cfg.retry_backoff_max_s,
                    )
                    stream = action.stream
                    assert stream is not None
                    stats = self._streams[stream.id]
                    stats.retried += 1
                    self._totals["retried"] += 1
                    tracer = self.runtime.tracer
                    tracer.record(
                        f"retry:{stream.lane}",
                        end,
                        end + retry_delay,
                        f"retry {node.attempts}: {action.display}",
                        kind="retry",
                    )
                    tracer.counter(f"retry:{stream.lane}", end, stats.retried)
                    # Back to READY for re-dispatch. A fault raised
                    # before on_start leaves the node READY already.
                    node.transition(ActionState.READY)
                    node.t_start = None
                else:
                    self.failure.record(
                        error,
                        namespace=(
                            action.stream.namespace if action.stream else ""
                        ),
                    )
                    node.t_end = end
                    node.error = error
                    node.transition(ActionState.FAILED)
                    self._finish_node(node, end, to_dispatch)
            else:
                node.t_end = end
                node.transition(ActionState.COMPLETE)
                self._finish_node(node, end, to_dispatch)
            if self._sanitizer is not None:
                self._sanitizer.check_scheduler(self)
        if retry_delay is not None:
            backend.execute_after(action, retry_delay)
        for nxt in to_dispatch:
            backend.execute(nxt)

    @caller_locked("_lock")
    def _finish_node(
        self,
        node: ActionNode,
        end: float,
        to_dispatch: List["Action"],
    ) -> None:
        """Terminal bookkeeping shared by completion, failure, and
        cancellation (lock held; ``node`` already in a terminal state
        with ``t_end``/``error`` set).

        Fires the completion event, records and folds metrics, retires
        the window entry, then releases (on success) or transitively
        cancels (on failure) the dependents.
        """
        action = node.action
        completion = action.completion
        assert completion is not None
        completion.timestamp = end
        self.runtime.backend.signal_completion(completion, end)
        record = node.record()
        completion.record = record
        if self._records.maxlen != 0:
            self._records.append(record)
        stream = action.stream
        assert stream is not None
        stats = self._streams[stream.id]
        state = node.state
        self._fold(stats, state, record)
        for obs in self.observers:
            obs.on_action_complete(action, record)
        stream.window.retire(action)
        stats.depth -= 1
        if stream.namespace:
            self._ns_inflight[stream.namespace] -= 1
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.counter(f"sched:{stream.lane}", end, stats.depth)
        if state is not ActionState.COMPLETE:
            assert node.error is not None
            self._poisoned[action.seq] = (action, node.error)
            root = node.error
            if isinstance(root, HStreamsCancelled) and root.__cause__ is not None:
                root = root.__cause__
            for dep_node in node.dependents:
                self._cancel_subgraph(dep_node, root, end)
            if (
                self.failure_policy == "fail_fast"
                and state is ActionState.FAILED
            ):
                # Graph-wide cancellation stops at the namespace border:
                # a tenant's fail_fast takes down that tenant's pending
                # work, never another tenant's (or the shared default
                # namespace's). Classic runtimes (ns == "") keep the
                # original everything-cancels semantics.
                ns = stream.namespace
                for other in self.graph.nodes():
                    if other.state is ActionState.ENQUEUED and (
                        not ns
                        or (
                            other.action.stream is not None
                            and other.action.stream.namespace == ns
                        )
                    ):
                        self._cancel_subgraph(other, root, end)
        else:
            for dep_node in node.dependents:
                if dep_node.state.is_terminal:
                    continue
                dep_node.waiting -= 1
                if dep_node.waiting == 0 and dep_node.state is ActionState.ENQUEUED:
                    dep_node.transition(ActionState.READY)
                    # A producer may finish (in virtual time) before the
                    # host enqueued this dependent: it cannot be ready
                    # before it exists.
                    t_enqueue = dep_node.t_enqueue
                    dep_node.t_ready = end if end > t_enqueue else t_enqueue
                    to_dispatch.append(dep_node.action)
        node.dependents = []
        self.graph.pop(node)
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.notify_all()

    @caller_locked("_lock")
    def _cancel_subgraph(
        self, node: ActionNode, root: BaseException, end: float
    ) -> None:
        """Poison ``node`` (and, transitively, its dependents) into
        CANCELLED because producer work it needs failed with ``root``.

        Lock held. READY/RUNNING nodes cannot be recalled from the
        executor and are left to finish normally — only not-yet-released
        (ENQUEUED) work is cancelled, which is exactly the set that
        would otherwise run on garbage inputs.
        """
        if node.state is not ActionState.ENQUEUED:
            return
        # A failure may precede (in virtual time) the host enqueue of
        # work it poisons; the cancellation cannot end before that.
        if end < node.t_enqueue:
            end = node.t_enqueue
        err = HStreamsCancelled(
            f"{node.action.display!r} cancelled: a producer it depends on "
            f"failed ({type(root).__name__}: {root})"
        )
        err.__cause__ = root
        node.error = err
        node.t_end = end
        node.transition(ActionState.CANCELLED)
        self._finish_node(node, end, [])

    @caller_locked("_lock")
    def _fold(
        self, stats: StreamStats, state: ActionState, record: ActionRecord
    ) -> None:
        """Accumulate one finished action into the totals, its stream's
        ``stats`` and its kind's row.

        ``state`` is the node's terminal state. The record's fields are
        read once and the three stalls computed here, with the same
        arithmetic as the record's properties.
        """
        t_ready = record.t_ready
        t_start = record.t_start
        dep_stall = t_ready - record.t_enqueue
        dispatch_stall = t_start - t_ready
        exec_s = record.t_end - t_start
        totals = self._totals
        if state is ActionState.COMPLETE:
            stats.completed += 1
            totals["completed"] += 1
        elif state is ActionState.FAILED:
            stats.failed += 1
            totals["failed"] += 1
        else:
            stats.cancelled += 1
            totals["cancelled"] += 1
        stats.dep_stall_s += dep_stall
        stats.dispatch_stall_s += dispatch_stall
        stats.exec_s += exec_s
        totals["dep_stall_s"] += dep_stall
        totals["dispatch_stall_s"] += dispatch_stall
        totals["exec_s"] += exec_s
        row = self._by_kind[record.kind]
        row["count"] += 1
        row["dep_stall_s"] += dep_stall
        row["exec_s"] += exec_s

    # -- observer notifications ---------------------------------------------------

    def notify_host_sync(
        self,
        kind: str,
        stream: Optional["Stream"] = None,
        events: Sequence[HEvent] = (),
    ) -> None:
        """Runtime callback: the source thread performed a blocking sync.

        Host synchronizations are happens-before edges (everything the
        host observed orders before whatever it enqueues next), so the
        hazard analyzer needs to see them even when the backend had
        nothing left to wait for.
        """
        with self._lock:
            for obs in self.observers:
                obs.on_host_sync(kind, stream=stream, events=list(events))

    def notify_buffer(
        self, kind: str, buf: "Buffer", domain: Optional[int] = None
    ) -> None:
        """Runtime callback: buffer lifecycle transition (create /
        destroy / evict), forwarded to observers for lifetime lints."""
        with self._lock:
            for obs in self.observers:
                obs.on_buffer(kind, buf, domain=domain)

    # -- queries -----------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Number of admitted, not-yet-finished actions."""
        with self._lock:
            return self._outstanding

    def enqueue_time(self, action: "Action") -> float:
        """The backend-clock time at which ``action`` was admitted."""
        with self._lock:
            node = self.graph.get(action)
            return node.t_enqueue if node is not None else 0.0

    def wait_idle(self, timeout: Optional[float] = None) -> None:
        """Block the calling (host) thread until no action is in flight.

        With ``timeout`` (wall seconds), raises
        :class:`~repro.core.errors.HStreamsTimedOut` if work is still
        outstanding when it expires.
        """
        with self._idle:
            if timeout is None:
                while self._outstanding > 0:
                    self._idle.wait()
                return
            deadline = time.monotonic() + timeout
            while self._outstanding > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise HStreamsTimedOut(
                        f"wait_all timed out after {timeout} s with "
                        f"{self._outstanding} action(s) outstanding"
                    )
                self._idle.wait(remaining)

    def clear_failure(
        self, namespace: Optional[str] = None
    ) -> List[BaseException]:
        """Reset the failure ledger and the poison tombstones.

        After this, new enqueues no longer poison against past failures
        and host waits stop re-raising. Returns the dropped errors.
        With ``namespace`` given, only that namespace's ledger entries
        and tombstones drop — other tenants stay poisoned.
        """
        with self._lock:
            if namespace is None:
                self._poisoned.clear()
            else:
                self._poisoned = {
                    seq: entry
                    for seq, entry in self._poisoned.items()
                    if not (
                        entry[0].stream is not None
                        and entry[0].stream.namespace == namespace
                    )
                }
            return self.failure.clear(namespace)

    def inflight_touching(
        self, buf: "Buffer", domain: Optional[int] = None
    ) -> List["Action"]:
        """Live actions with an operand on ``buf``.

        With ``domain`` given, only actions whose stream sinks into that
        domain count — the query behind the busy check in
        :meth:`~repro.core.runtime.HStreams.buffer_evict`.
        """
        with self._lock:
            out: List["Action"] = []
            for node in self.graph.nodes():
                a = node.action
                if domain is not None and (
                    a.stream is None or a.stream.domain != domain
                ):
                    continue
                if any(op.buffer is buf for op in a.operands):
                    out.append(a)
            return out

    def find_stalled(self) -> List["Action"]:
        """Actions that can never run because nothing can unblock them."""
        with self._lock:
            return [n.action for n in self.graph.stalled()]

    def pending_completions(self, stream: "Stream") -> List[HEvent]:
        """Completion events of the stream's still-incomplete actions,
        snapshotted under the scheduler lock (the window's live set is
        guarded state; executor threads retire entries concurrently)."""
        with self._lock:
            return stream.window.pending_completions()

    # -- deep checks (rtsan) --------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Deep-check every scheduler bookkeeping invariant.

        Recomputes from first principles and diffs against the
        incrementally-maintained state: the outstanding counter vs the
        live graph, per-node lifecycle legality (live nodes are
        ENQUEUED/READY/RUNNING; ENQUEUED implies unfinished producers;
        ``waiting`` matches a recount over the producers' dependent
        lists), lifecycle time order (``t_enqueue <= t_ready <=
        t_start`` over the times a live node has set), per-stream depth
        vs the live nodes of that stream, no stream window entry whose
        completion has fired (the scheduler retires each entry as it
        completes), and each stream window's conflict index vs a
        from-scratch rebuild
        (:meth:`~repro.core.dependences.StreamWindow.check_index` — the
        lanes hold exactly the live conflicts the scan must see).
        Returns human-readable problems; empty means consistent. Under
        rtsan this runs after every admission and completion transition.
        """
        with self._lock:
            return self._check_invariants_locked()

    @caller_locked("_lock")
    def _check_invariants_locked(self) -> List[str]:
        problems: List[str] = []
        nodes = list(self.graph.nodes())
        if self._outstanding != len(nodes):
            problems.append(
                f"outstanding counter {self._outstanding} != "
                f"{len(nodes)} live graph nodes"
            )
        live_states = (
            ActionState.ENQUEUED,
            ActionState.READY,
            ActionState.RUNNING,
        )
        incoming: Dict[int, int] = {}
        per_stream: Dict[int, int] = {}
        for node in nodes:
            if node.state not in live_states:
                problems.append(
                    f"{node.action.display!r} is live but in terminal "
                    f"state {node.state.name}"
                )
            t_ready = node.t_ready
            if t_ready is not None and not (
                node.t_enqueue <= t_ready
                and (node.t_start is None or t_ready <= node.t_start)
            ):
                problems.append(
                    f"{node.action.display!r} lifecycle times out of order: "
                    f"t_enqueue={node.t_enqueue!r} t_ready={t_ready!r} "
                    f"t_start={node.t_start!r}"
                )
            for dep in node.dependents:
                if not dep.state.is_terminal:
                    incoming[dep.action.seq] = (
                        incoming.get(dep.action.seq, 0) + 1
                    )
            stream = node.action.stream
            if stream is not None:
                per_stream[stream.id] = per_stream.get(stream.id, 0) + 1
        for node in nodes:
            expected = incoming.get(node.action.seq, 0)
            if node.state is ActionState.ENQUEUED:
                if node.waiting != expected:
                    problems.append(
                        f"{node.action.display!r} waiting={node.waiting} "
                        f"but {expected} live producer edge(s)"
                    )
                if node.waiting <= 0:
                    problems.append(
                        f"{node.action.display!r} is ENQUEUED with "
                        f"waiting={node.waiting} (should be READY)"
                    )
            elif node.state in live_states and node.waiting != 0:
                problems.append(
                    f"{node.action.display!r} is {node.state.name} with "
                    f"waiting={node.waiting}"
                )
        for stats in self._streams.values():
            label = f"stream {stats.stream.name!r}"
            live_here = per_stream.get(stats.stream.id, 0)
            if stats.depth != live_here:
                problems.append(
                    f"{label} depth={stats.depth} but {live_here} live node(s)"
                )
            window = stats.stream.window
            # _finish_node retires each entry in the lock hold that
            # fires its completion; the window's scans rely on that and
            # never look at a completion themselves.
            for completion in window.pending_completions():
                if completion.is_complete():
                    problems.append(
                        f"{label}: {completion.action.display!r} completed "
                        "but is still live in the stream window"
                    )
            problems.extend(window.check_index(label))
        per_ns: Dict[str, int] = {}
        for node in nodes:
            stream = node.action.stream
            if stream is not None and stream.namespace:
                per_ns[stream.namespace] = per_ns.get(stream.namespace, 0) + 1
        for ns, counted in self._ns_inflight.items():
            live_here = per_ns.get(ns, 0)
            if counted != live_here:
                problems.append(
                    f"namespace {ns!r} in-flight counter {counted} but "
                    f"{live_here} live node(s)"
                )
        return problems

    # -- metrics --------------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """A point-in-time snapshot of scheduling observability data.

        Keys:

        * ``actions`` — enqueued / completed / failed / cancelled /
          retried / in-flight counts, plus ``dep_edges`` (graph edges
          wired at admission);
        * ``lifecycle`` — total dependence-stall, dispatch-stall, and
          execution seconds across all finished actions;
        * ``by_kind`` — the same split per action kind;
        * ``streams`` — per-stream queue depth (current and high-water),
          throughput counts, and stall totals;
        * ``records`` — the most recent per-action lifecycle records
          (bounded by ``RuntimeConfig.metrics_history``).
        """
        with self._lock:
            totals = self._totals
            return {
                "actions": {
                    # Every admitted action is in flight or finished.
                    "enqueued": totals["completed"]
                    + totals["failed"]
                    + totals["cancelled"]
                    + self._outstanding,
                    "completed": totals["completed"],
                    "failed": totals["failed"],
                    "cancelled": totals["cancelled"],
                    "retried": self._totals["retried"],
                    "dep_edges": sum(
                        stats.dep_edges for stats in self._streams.values()
                    ),
                    "in_flight": self._outstanding,
                },
                "lifecycle": {
                    "dep_stall_s": self._totals["dep_stall_s"],
                    "dispatch_stall_s": self._totals["dispatch_stall_s"],
                    "exec_s": self._totals["exec_s"],
                },
                "by_kind": {k: dict(v) for k, v in self._by_kind.items()},
                "streams": {
                    sid: stats.snapshot() for sid, stats in self._streams.items()
                },
                "namespaces": self._namespace_metrics(),
                "records": list(self._records),
            }

    @caller_locked("_lock")
    def _namespace_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-namespace aggregates over the namespace's streams.

        Empty-namespace streams (the classic single-user runtime) are
        not aggregated — the block exists for the multi-tenant service
        tier, where each tenant session owns one namespace.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for stats in self._streams.values():
            ns = stats.stream.namespace
            if not ns:
                continue
            agg = out.get(ns)
            if agg is None:
                agg = out[ns] = {
                    "streams": 0,
                    "enqueued": 0,
                    "completed": 0,
                    "failed": 0,
                    "cancelled": 0,
                    "retried": 0,
                    "dep_stall_s": 0.0,
                    "exec_s": 0.0,
                    "in_flight": self._ns_inflight.get(ns, 0),
                    "quota": self.namespace_quotas.get(ns),
                }
            agg["streams"] += 1
            agg["enqueued"] += stats.enqueued
            agg["completed"] += stats.completed
            agg["failed"] += stats.failed
            agg["cancelled"] += stats.cancelled
            agg["retried"] += stats.retried
            agg["dep_stall_s"] += stats.dep_stall_s
            agg["exec_s"] += stats.exec_s
        return out
