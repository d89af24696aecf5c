"""The execution backend (executor) interface.

All scheduling lives in :class:`~repro.core.scheduler.Scheduler`: FIFO
policies, dependence edges, ready-set dispatch, completion propagation,
and lifecycle metrics are backend-independent. A backend is a pure
*executor*: it only ever sees actions whose dependences are already
satisfied, runs them, and reports lifecycle events back to the
scheduler. This mirrors the paper's layering (hStreams above COI above
SCIF): the same application code runs on the thread backend (real
execution) or the sim backend (virtual time).

The executor contract for :meth:`Backend.execute`:

1. the scheduler calls ``execute(action)`` exactly once, only after
   every dependence of ``action`` has completed;
2. the backend runs the action (possibly asynchronously), calling
   :meth:`Backend._start` when execution begins and
   :meth:`Backend._finish` when it ends — including on failure, so
   dependents are released and the error surfaces at the next
   synchronization;
3. the scheduler triggers the action's completion event through
   :meth:`Backend.signal_completion` during ``on_complete``.

``_start`` and ``_finish`` are the one action lifecycle every backend
shares: start reported, fault check, run, post-hoc budget, completion
reported. A backend supplies only the run and the clock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.errors import HStreamsTimedOut

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action
    from repro.core.buffer import Buffer
    from repro.core.events import HEvent
    from repro.core.runtime import HStreams
    from repro.core.stream import Stream

__all__ = ["Backend"]


class Backend(ABC):
    """Execution engine behind an :class:`~repro.core.runtime.HStreams`."""

    runtime: "HStreams"

    @abstractmethod
    def attach(self, runtime: "HStreams") -> None:
        """Bind to a runtime; called once from ``HStreams.__init__``."""

    @abstractmethod
    def make_handle(self) -> Any:
        """A fresh completion handle for a new action's event."""

    @abstractmethod
    def event_done(self, event: "HEvent") -> bool:
        """Non-blocking completion poll for an event of this backend."""

    @abstractmethod
    def signal_completion(self, event: "HEvent", when: float) -> None:
        """Fire an event's handle; called by the scheduler at completion."""

    @abstractmethod
    def make_stream(self, stream: "Stream") -> None:
        """Provision backend state for a newly created stream."""

    @abstractmethod
    def make_instance(self, buf: "Buffer", domain: int) -> Optional[Any]:
        """Create the backing payload for a buffer instance in a domain.

        Returns the per-domain payload the
        :class:`~repro.core.memory.MemoryManager` stores in
        ``buf.instances`` — a flat uint8 ndarray under the thread
        backend (the caller's own memory for a wrapped host array), or
        ``None`` for data-free sim/capture instances. Backends never
        mutate ``buf.instances`` themselves: the manager is the single
        authority over instance lifecycle.
        """

    def on_buffer_destroy(self, buf: "Buffer") -> None:
        """Release backend state for a destroyed buffer."""

    def on_instance_evict(self, buf: "Buffer", domain: int) -> None:
        """Release backend state for one evicted domain instance."""

    def on_stream_destroy(self, stream: "Stream") -> None:
        """Release backend state for a destroyed (drained) stream."""

    @abstractmethod
    def execute(self, action: "Action") -> None:
        """Run an action whose dependences the scheduler satisfied.

        Must report through :meth:`_start` / :meth:`_finish` (see the
        executor contract in the module docstring).
        """

    def _start(self, action: "Action", when: float) -> None:
        """Report that ``action`` started at ``when``, then consult the
        fault injector, which raises in place of running an armed
        action (the caller hands the error to :meth:`_finish`)."""
        self.runtime.scheduler.on_start(action, when=when)
        injector = self.runtime.fault_injector
        if injector is not None:
            injector.check(action)

    def _finish(
        self,
        action: "Action",
        end: float,
        error: Optional[BaseException],
        ran_s: float,
    ) -> None:
        """Apply the action budget and report the completion at ``end``.

        ``ran_s`` is how long the action itself ran, from its
        :meth:`_start` — what ``action_timeout_s`` is judged on; queueing
        before the start never counts.
        """
        budget = self.runtime.config.action_timeout_s
        if error is None and budget is not None and ran_s > budget:
            # Kernels cannot be preempted (and a modelled duration is
            # known only once it ran): the budget is judged post-hoc.
            error = HStreamsTimedOut(
                f"{action.display!r} ran {ran_s:.6f} s, over the "
                f"action_timeout_s budget of {budget} s"
            )
        self.runtime.scheduler.on_complete(action, when=end, error=error)

    def execute_after(self, action: "Action", delay: float) -> None:
        """Re-run ``action`` after ``delay`` seconds (retry dispatch).

        Called by the scheduler when ``failure_policy="retry"`` backs a
        transient failure off. Semantics are those of :meth:`execute`
        with the start postponed by ``delay`` on this backend's clock.
        The default ignores the delay and re-executes immediately.
        """
        self.execute(action)

    @abstractmethod
    def wait_events(
        self,
        events: List["HEvent"],
        wait_all: bool = True,
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> None:
        """Block the source until any/all of ``events`` complete.

        Raises :class:`~repro.core.errors.HStreamsTimedOut` when
        ``timeout`` (seconds on this backend's clock) expires first,
        and must re-raise pending run failures (via
        ``runtime.scheduler.failure.raise_pending()``) rather than
        block forever on events a failed producer will never fire.

        ``scope`` narrows that failure surfacing to one stream
        namespace (the multi-tenant isolation contract: a tenant's wait
        never raises another tenant's error); ``None`` — the default
        and the classic behavior — surfaces any pending failure.
        """

    @abstractmethod
    def wait_all(
        self, timeout: Optional[float] = None, scope: Optional[str] = None
    ) -> None:
        """Block the source until every admitted action completed.

        Same timeout and failure-surfacing contract (including
        ``scope``) as :meth:`wait_events`.
        """

    @abstractmethod
    def now(self) -> float:
        """The source-side clock (wall or virtual seconds)."""

    def advance_host(self, dt: float) -> None:
        """Charge ``dt`` seconds of API overhead to the source clock.

        Real backends ignore this (wall time passes by itself); the sim
        backend advances its virtual host clock.
        """

    def close(self) -> None:
        """Tear down backend resources."""
