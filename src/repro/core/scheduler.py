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

#: Shared empty dangling-wait list for the common enqueue (no explicit
#: waits claimed): handed to observers read-only, never mutated.
_NO_DANGLING: List["HEvent"] = []

#: Shared empty producer list: handed to deps-blind observers during
#: batched replay admission (see ``SchedulerObserver.wants_deps``).
_NO_DEPS: List["Action"] = []


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

    #: Whether :meth:`on_enqueue` reads its ``deps`` argument. Batched
    #: replay admission skips materializing per-clone producer tuples
    #: when every registered observer declares ``False`` (the memory
    #: manager and fault injector do); observers that consume edges —
    #: trace capture, the online checker — keep the default.
    wants_deps: bool = True

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
        "enqueued",
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
        self.enqueued = 0
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
            "enqueued": 0,
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
            stats = self._stream_stats(stream)
            stats.destroyed = True
            self.runtime.tracer.counter(
                f"sched:{stream.lane}", self.runtime.backend.now(), stats.depth
            )
            for obs in self.observers:
                obs.on_stream_destroy(stream)

    @caller_locked("_lock")
    def _stream_stats(self, stream: "Stream") -> StreamStats:
        stats = self._streams.get(stream.id)
        if stats is None:  # streams made outside stream_create (tests)
            stats = StreamStats(stream)
            self._streams[stream.id] = stats
        return stats

    # -- enqueue ----------------------------------------------------------------

    def enqueue(self, action: "Action") -> HEvent:
        """Admit an action: wire its dependence edges and dispatch if ready.

        ``action.deps`` may already hold explicit cross-stream event
        waits (``event_stream_wait``); intra-stream dependences are
        computed here from the stream's window view under its FIFO
        policy. Returns the action's completion event.

        Admission is a pipeline — compute window dependences, resolve
        and validate them (:meth:`_resolve_deps`), then admit
        (:meth:`_admit`). The dependence-computation stage is the only
        part replay (:meth:`enqueue_precomputed`) skips: a replayed
        action arrives with its edges already known, so no window scan
        runs at all.
        """
        backend = self.runtime.backend
        stream = action.stream
        assert stream is not None
        with self._lock:
            if self.failure_policy == "fail_fast":
                # Refuse new work outright once anything failed — in the
                # enqueueing stream's namespace only, when it has one:
                # one tenant's fail_fast never rejects another's work.
                self.failure.raise_pending(
                    namespace=stream.namespace or None
                )
            self._check_quota(stream)
            now = backend.now()
            # Intra-stream policy dependences come back as live actions;
            # the list is ours, so it doubles as the observer-facing
            # ``dep_actions`` without another allocation. ``action.deps``
            # stays what the caller put there: explicit event waits.
            window_deps = stream.window.deps_for(action)
            dep_nodes, dep_actions, dangling = self._resolve_deps(
                action, window_deps
            )
            ready = self._admit(action, now, dep_nodes, dep_actions, dangling)
            if self._sanitizer is not None:
                self._sanitizer.check_scheduler(self)
        if ready:
            backend.execute(action)
        return action.completion

    def enqueue_precomputed(
        self, action: "Action", dep_actions: Sequence["Action"]
    ) -> HEvent:
        """Admit an action whose dependence edges are already known.

        The replay path (:meth:`~repro.core.runtime.HStreams.replay`):
        ``dep_actions`` are the producers a captured template recorded
        for this action, so the window dependence scan — the
        per-action cost the scan counters measure — is skipped
        entirely. Producers that already finished resolve to no live
        node, exactly as satisfied dependences do on the enqueue path.
        Everything downstream of dependence computation (poison checks,
        graph insertion, observers, elision, readiness dispatch) is the
        shared :meth:`_admit` stage, so replayed actions execute
        identically to enqueued ones on every backend.
        """
        backend = self.runtime.backend
        assert action.stream is not None
        with self._lock:
            if self.failure_policy == "fail_fast":
                self.failure.raise_pending(
                    namespace=action.stream.namespace or None
                )
            self._check_quota(action.stream)
            now = backend.now()
            get_node = self.graph.get
            dep_nodes = [
                node for node in map(get_node, dep_actions) if node is not None
            ]
            ready = self._admit(
                action, now, dep_nodes, list(dep_actions), _NO_DANGLING
            )
            if self._sanitizer is not None:
                self._sanitizer.check_scheduler(self)
        if ready:
            backend.execute(action)
        return action.completion

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

    @caller_locked("_lock")
    def _check_quota(self, stream: "Stream") -> None:
        """Reject admission when the stream namespace's quota is full."""
        ns = stream.namespace
        if not ns or not self.namespace_quotas:
            return
        limit = self.namespace_quotas.get(ns)
        if limit is not None and self._ns_inflight.get(ns, 0) >= limit:
            from repro.core.errors import HStreamsQuotaExceeded

            raise HStreamsQuotaExceeded(
                f"namespace {ns!r} has {limit} action(s) in flight "
                "(its quota); synchronize or defer before enqueueing more"
            )

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

    def admit_instance(self, instance) -> None:
        """Admit a whole replayed graph instance in one scheduler pass.

        The batch form of :meth:`enqueue_precomputed`, and the reason
        replay admission stays cheap: the lock is taken once, ``now`` is
        read once, per-stream stats and the depth counters are updated
        once per stream, and the template's edges are wired node-to-node
        by position — every producer of a template edge is an earlier
        member of this same batch, so no graph lookups run at all.
        Completions serialize on the scheduler lock, so nothing retires
        mid-batch and the in-batch waiting counts are exact; dispatch of
        the ready roots happens after the lock drops, exactly as for
        single admissions.

        With failures pending the batch falls back to per-action
        :meth:`enqueue_precomputed`: admission poisoning needs each
        action's producer and conflict context individually, and that
        path is not the one whose cost replay is optimizing.
        """
        backend = self.runtime.backend
        ready: List["Action"] = []
        with self._lock:
            if self.failure_policy == "fail_fast":
                self.failure.raise_pending()
            poisoned = bool(self._poisoned)
            if not poisoned:
                ready = self._admit_batch(instance, backend)
                if self._sanitizer is not None:
                    self._sanitizer.check_scheduler(self)
        if poisoned:
            for action, dep_actions in zip(instance.actions, instance.dep_lists):
                self.enqueue_precomputed(action, dep_actions)
            return
        execute = backend.execute
        for action in ready:
            execute(action)

    @caller_locked("_lock")
    def _admit_batch(self, instance, backend) -> List["Action"]:
        """Admit every clone of ``instance`` in template order.

        Lock held, no pending failures. Mirrors :meth:`_admit` stage by
        stage (graph node, completion event, edges, window entry,
        observers, readiness) with the per-action bookkeeping hoisted
        out of the loop. Template edges always point backwards in the
        batch (the recorder admits producers first) and clones draw
        fresh monotonic seqs, so the acyclicity invariant
        :meth:`~repro.core.graph.ActionGraph.add_edge` checks holds by
        construction. Returns the immediately dispatchable roots.
        """
        now = backend.now()
        make_handle = backend.make_handle
        graph_add = self.graph.add
        observers = self.observers
        dep_lists = (
            instance.dep_lists
            if any(getattr(obs, "wants_deps", True) for obs in observers)
            else None
        )
        nodes: List[ActionNode] = []
        ready: List["Action"] = []
        for i, action in enumerate(instance.actions):
            node = graph_add(action, now)
            action.completion = HEvent(backend, make_handle(), action)
            dep_idx = instance.template.dep_indices[i]
            for j in dep_idx:
                nodes[j].dependents.append(node)
            node.waiting = len(dep_idx)
            nodes.append(node)
            action.stream.window.add(action)
            deps = _NO_DEPS if dep_lists is None else dep_lists[i]
            for obs in observers:
                obs.on_enqueue(action, deps, _NO_DANGLING)
            if node.waiting == 0:
                node.transition(ActionState.READY)
                node.t_ready = now
                ready.append(action)
        self._totals["enqueued"] += len(nodes)
        self._outstanding += len(nodes)
        per_stream: Dict[int, List] = {}
        for action, dep_idx in zip(instance.actions, instance.template.dep_indices):
            entry = per_stream.get(action.stream.id)
            if entry is None:
                per_stream[action.stream.id] = [action.stream, 1, len(dep_idx)]
            else:
                entry[1] += 1
                entry[2] += len(dep_idx)
        tracer = self.runtime.tracer
        for stream, count, edges in per_stream.values():
            stats = self._stream_stats(stream)
            stats.enqueued += count
            stats.dep_edges += edges
            stats.depth += count
            if stats.depth > stats.max_depth:
                stats.max_depth = stats.depth
            if stream.namespace:
                self._ns_inflight[stream.namespace] = (
                    self._ns_inflight.get(stream.namespace, 0) + count
                )
            if tracer.enabled:
                tracer.counter(f"sched:{stream.lane}", now, stats.depth)
        return ready

    @caller_locked("_lock")
    def _resolve_deps(
        self, action: "Action", window_deps: List["Action"]
    ) -> Tuple[List[ActionNode], List["Action"], List[HEvent]]:
        """Resolve and validate every dependence before mutating the
        graph, so a rejected enqueue leaves no zombie node behind.

        Lock held. Returns ``(dep_nodes, dep_actions, dangling)``:
        the live producer nodes to edge against, every producer action
        (live or finished) for the observers, and any dangling waits an
        observer claimed.
        """
        dep_nodes: List[ActionNode] = []
        dangling: List[HEvent] = _NO_DANGLING
        dep_actions: List["Action"] = window_deps
        for prev in window_deps:
            dep_node = self.graph.get(prev)
            if dep_node is not None:  # retired concurrently (defensive)
                dep_nodes.append(dep_node)
        if action.deps:
            # Explicit waits may duplicate each other or a window
            # dependence; the common enqueue has none, so the dedup
            # set is built only on this path. ``dep_actions`` keeps
            # every waited action, including already-completed ones
            # (capture mode completes everything instantly, so the
            # live graph alone would record no edges at all).
            seen = {prev.seq for prev in window_deps}
            for ev in action.deps:
                dep = ev.action
                if dep is not None:
                    if dep.seq in seen:
                        continue
                    seen.add(dep.seq)
                    dep_actions.append(dep)
                dep_node = self.graph.get(dep)
                if dep_node is not None:
                    dep_nodes.append(dep_node)
                elif not ev.is_complete():
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
        return dep_nodes, dep_actions, dangling

    @caller_locked("_lock")
    def _admit(
        self,
        action: "Action",
        now: float,
        dep_nodes: List[ActionNode],
        dep_actions: List["Action"],
        dangling: List[HEvent],
    ) -> bool:
        """Final admission stage, shared by enqueue and replay.

        Lock held; dependences already resolved. Checks admission
        poisoning, inserts the graph node with its edges, mints the
        completion event, updates the window and the stats, notifies
        observers, and returns whether the action is immediately
        dispatchable (no unfinished dependences, not poisoned).
        """
        stream = action.stream
        backend = self.runtime.backend
        # Determinism across enqueue/failure interleavings: work
        # admitted *after* a producer failed must poison exactly
        # like work admitted before (failed actions have already
        # left the live graph and the stream window, so the edge
        # machinery alone would happily run it on garbage).
        poison = self._admission_poison(action, dep_actions)
        node = self.graph.add(action, now)
        action.completion = HEvent(backend, backend.make_handle(), action)
        self.graph.add_edges(dep_nodes, node)
        stream.window.add(action)
        stats = self._stream_stats(stream)
        stats.enqueued += 1
        stats.dep_edges += len(dep_nodes)
        stats.depth += 1
        if stats.depth > stats.max_depth:
            stats.max_depth = stats.depth
        if stream.namespace:
            self._ns_inflight[stream.namespace] = (
                self._ns_inflight.get(stream.namespace, 0) + 1
            )
        self._totals["enqueued"] += 1
        self._outstanding += 1
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.counter(f"sched:{stream.lane}", now, stats.depth)
        for obs in self.observers:
            obs.on_enqueue(action, dep_actions, dangling)
        if poison is not None:
            self._cancel_subgraph(node, poison, now)
        elif node.waiting == 0:
            node.transition(ActionState.READY)
            node.t_ready = now
            return True
        return False

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
        if not self._poisoned or self.failure_policy == "fail_fast":
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

    @property
    def failure_policy(self) -> str:
        """The owning runtime's failure policy (defaults to poison)."""
        return getattr(self.runtime, "failure_policy", "poison")

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
                    stats = self._stream_stats(stream)
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
        backend = self.runtime.backend
        action = node.action
        assert action.completion is not None
        action.completion.timestamp = end
        backend.signal_completion(action.completion, end)
        record = node.record()
        action.completion.record = record
        if self._records.maxlen != 0:
            self._records.append(record)
        self._fold(node, record)
        for obs in self.observers:
            obs.on_action_complete(action, record)
        stream = action.stream
        assert stream is not None
        stream.window.retire(action)
        stats = self._stream_stats(stream)
        stats.depth -= 1
        if stream.namespace:
            self._ns_inflight[stream.namespace] -= 1
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.counter(f"sched:{stream.lane}", end, stats.depth)
        failed = node.state is not ActionState.COMPLETE
        if failed:
            assert node.error is not None
            self._poisoned[action.seq] = (action, node.error)
            root = node.error
            if isinstance(root, HStreamsCancelled) and root.__cause__ is not None:
                root = root.__cause__
            for dep_node in node.dependents:
                self._cancel_subgraph(dep_node, root, end)
            if (
                self.failure_policy == "fail_fast"
                and node.state is ActionState.FAILED
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
                    dep_node.t_ready = end
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
    def _fold(self, node, record: ActionRecord) -> None:
        """Accumulate one finished node into the aggregates."""
        stats = self._stream_stats(node.action.stream)
        if node.state is ActionState.FAILED:
            stats.failed += 1
            self._totals["failed"] += 1
        elif node.state is ActionState.CANCELLED:
            stats.cancelled += 1
            self._totals["cancelled"] += 1
        else:
            stats.completed += 1
            self._totals["completed"] += 1
        stats.dep_stall_s += record.dep_stall
        stats.dispatch_stall_s += record.dispatch_stall
        stats.exec_s += record.exec_time
        self._totals["dep_stall_s"] += record.dep_stall
        self._totals["dispatch_stall_s"] += record.dispatch_stall
        self._totals["exec_s"] += record.exec_time
        kind = self._by_kind[record.kind]
        kind["count"] += 1
        kind["dep_stall_s"] += record.dep_stall
        kind["exec_s"] += record.exec_time

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
        lists), per-stream depth vs the live nodes of that stream, and
        each stream window's conflict index vs a from-scratch rebuild
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
            live_here = per_stream.get(stats.stream.id, 0)
            if stats.depth != live_here:
                problems.append(
                    f"stream {stats.stream.name!r} depth={stats.depth} "
                    f"but {live_here} live node(s)"
                )
            problems.extend(
                stats.stream.window.check_index(
                    f"stream {stats.stream.name!r}"
                )
            )
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
            return {
                "actions": {
                    "enqueued": self._totals["enqueued"],
                    "completed": self._totals["completed"],
                    "failed": self._totals["failed"],
                    "cancelled": self._totals["cancelled"],
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
