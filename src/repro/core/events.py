"""Completion events.

Every enqueued action yields an :class:`HEvent`. Unlike CUDA, no explicit
event creation/destruction is needed (paper §IV), and waits may cover a
*set* of events with any/all semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action

__all__ = ["HEvent"]


class HEvent:
    """Handle for the completion of one enqueued action.

    The backend owns the underlying synchronization object (``handle``):
    a completion flag under the thread backend (waiters block on the
    backend's completion condition), a sim-engine event under the sim
    backend.
    """

    __slots__ = ("backend", "handle", "action", "timestamp", "record")

    def __init__(self, backend: Any, handle: Any, action: Optional["Action"] = None):
        self.backend = backend
        self.handle = handle
        self.action = action
        #: Completion time (backend clock); set by the scheduler at completion.
        self.timestamp: Optional[float] = None
        #: Lifecycle summary (:class:`~repro.core.graph.ActionRecord`);
        #: set by the scheduler at completion.
        self.record: Optional[Any] = None

    def is_complete(self) -> bool:
        """Non-blocking completion poll."""
        return self.backend.event_done(self)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block the source thread until this action completes.

        Without an explicit ``timeout``, the owning runtime's
        ``RuntimeConfig.wait_timeout_s`` applies (``None`` = forever).
        """
        if timeout is None:
            runtime = getattr(self.backend, "runtime", None)
            if runtime is not None:
                timeout = runtime.config.wait_timeout_s
        self.backend.wait_events([self], wait_all=True, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.is_complete() else "pending"
        label = self.action.display if self.action is not None else "?"
        return f"<HEvent {label} {state}>"
