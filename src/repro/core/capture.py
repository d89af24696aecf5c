"""Whole-program capture: record the action graph without dispatching.

Capture mode (``HStreams(capture_only=True)``) swaps the execution
backend for :class:`CaptureBackend`, which completes every action the
moment it is admitted — no kernel runs, no byte is copied, no virtual
time passes. The program therefore runs its full enqueue logic at
Python speed while :class:`ProgramCapture` (a
:class:`~repro.core.scheduler.SchedulerObserver`) records a
:class:`ProgramTrace`: every action with its resolved dependence edges,
every host synchronization, and every buffer lifecycle transition, each
tagged with the user-code source site that caused it.

The trace is what the happens-before engine (:mod:`repro.analysis.hb`)
and the lint passes (:mod:`repro.analysis.lints`) consume. Because
nothing executes, numerical assertions in the captured program will
fail — :func:`~repro.analysis.checker.check_program` treats that as the
end of the capturable prefix, not as a diagnostic.

:func:`capture_session` forces capture mode on every
:class:`~repro.core.runtime.HStreams` constructed inside it, which is
how the CLI checks programs that build their runtimes internally.

These primitives started life inside :mod:`repro.analysis`; they moved
here because graph replay (:mod:`repro.core.replay`) records templates
with the same full-history policy recomputation the analyzer uses, and
``core`` cannot depend on ``analysis``. The analyzer imports them from
here.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.backend import Backend
from repro.core.dependences import HistoryWindow
from repro.core.errors import HStreamsInvalid
from repro.core.scheduler import SchedulerObserver
from repro.core.sites import user_site as _user_site

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action
    from repro.core.buffer import Buffer
    from repro.core.events import HEvent
    from repro.core.stream import Stream

__all__ = [
    "ActionEvent",
    "SyncEvent",
    "BufferEvent",
    "StreamEvent",
    "ProgramTrace",
    "ProgramCapture",
    "CaptureBackend",
    "capture_session",
    "policy_dep_seqs",
]


def policy_dep_seqs(shadows: dict, action: "Action") -> Tuple[int, ...]:
    """Intra-stream policy deps of ``action`` over full stream history.

    ``shadows`` maps stream id to the
    :class:`~repro.core.dependences.HistoryWindow` this call maintains —
    the stream's own policy and scan over a window that never retires;
    the action is added after its deps are computed.
    """
    stream = action.stream
    if stream is None:
        return ()
    shadow = shadows.get(stream.id)
    if shadow is None:
        shadow = shadows[stream.id] = HistoryWindow(policy=stream.window.policy)
    deps = shadow.deps_for(action)
    shadow.add(action)
    return tuple(d.seq for d in deps)


@dataclass(frozen=True)
class ActionEvent:
    """One admitted action, with its ordering edges resolved.

    ``dep_seqs`` are the sequence numbers of the actions this one
    was ordered after — explicit event waits plus the intra-stream FIFO
    policy dependences the scheduler computed. ``dangling`` describes
    waits on events no action of this runtime fires (see the
    ``deadlock`` rule).
    """

    pos: int
    action: "Action"
    dep_seqs: Tuple[int, ...]
    dangling: Tuple[str, ...] = ()
    site: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class SyncEvent:
    """A blocking host synchronization.

    ``kind`` is ``event_wait`` (with ``seqs`` the waited actions),
    ``stream_synchronize`` (with ``stream_id``), or
    ``thread_synchronize``.
    """

    pos: int
    kind: str
    stream_id: Optional[int] = None
    seqs: Tuple[int, ...] = ()
    site: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class BufferEvent:
    """A buffer lifecycle transition: create, destroy, or evict."""

    pos: int
    kind: str
    buffer: "Buffer"
    domain: Optional[int] = None
    site: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class StreamEvent:
    """A stream lifecycle transition: ``create`` or ``destroy``."""

    pos: int
    stream: "Stream"
    kind: str = "create"


@dataclass
class ProgramTrace:
    """The recorded program: lifecycle events in program order."""

    events: List[Any] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.events)

    def actions(self) -> List[ActionEvent]:
        """Just the action events, in program order."""
        return [e for e in self.events if isinstance(e, ActionEvent)]


class ProgramCapture(SchedulerObserver):
    """Scheduler observer that records a :class:`ProgramTrace`.

    One recorder per captured runtime; the runtime registers it in
    ``scheduler.observers`` when constructed with ``capture_only=True``
    (or inside :func:`capture_session`).
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.trace = ProgramTrace()
        self._pos = 0
        self._shadows: dict = {}
        #: Seqs of every captured action, for dangling-wait triage.
        self._seen_seqs: set = set()
        # Dangling events seen since the last on_enqueue, claimed in
        # on_dangling_wait and folded into the next ActionEvent.
        self._pending_dangling: List[str] = []

    def _next_pos(self) -> int:
        self._pos += 1
        return self._pos

    # -- scheduler callbacks ---------------------------------------------------

    def on_dangling_wait(self, action: "Action", event: "HEvent") -> bool:
        # Everything completes (and folds out of the graph) instantly
        # under capture, and capture events never poll complete, so
        # every dependence on an already-captured action lands here:
        # those are ordinary edges, not hazards. Only waits on events no
        # captured action fired are genuinely dangling.
        if event.action is not None and event.action.seq in self._seen_seqs:
            return True
        owner = "another runtime" if event.backend is not self.runtime.backend else (
            "no enqueued action"
        )
        label = event.action.display if event.action is not None else "<bare event>"
        self._pending_dangling.append(f"{label} ({owner})")
        return True  # claimed: record a diagnostic instead of raising

    def on_enqueue(
        self,
        action: "Action",
        deps: List["Action"],
        dangling: List["HEvent"],
    ) -> None:
        described, self._pending_dangling = self._pending_dangling, []
        self._seen_seqs.add(action.seq)
        seqs = {d.seq for d in deps}
        seqs.update(policy_dep_seqs(self._shadows, action))
        self.trace.events.append(
            ActionEvent(
                pos=self._next_pos(),
                action=action,
                dep_seqs=tuple(sorted(seqs)),
                dangling=tuple(described),
                site=_user_site(),
            )
        )

    def on_host_sync(
        self,
        kind: str,
        stream: Optional["Stream"] = None,
        events: Sequence["HEvent"] = (),
    ) -> None:
        seqs = tuple(
            ev.action.seq for ev in events if ev.action is not None
        )
        self.trace.events.append(
            SyncEvent(
                pos=self._next_pos(),
                kind=kind,
                stream_id=stream.id if stream is not None else None,
                seqs=seqs,
                site=_user_site(),
            )
        )

    def on_buffer(
        self, kind: str, buf: "Buffer", domain: Optional[int] = None
    ) -> None:
        self.trace.events.append(
            BufferEvent(
                pos=self._next_pos(),
                kind=kind,
                buffer=buf,
                domain=domain,
                site=_user_site(),
            )
        )

    def on_stream_create(self, stream: "Stream") -> None:
        self.trace.events.append(
            StreamEvent(pos=self._next_pos(), stream=stream, kind="create")
        )

    def on_stream_destroy(self, stream: "Stream") -> None:
        self.trace.events.append(
            StreamEvent(pos=self._next_pos(), stream=stream, kind="destroy")
        )


class _CaptureHandle:
    """Completion flag for capture-mode events."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = False


class CaptureBackend(Backend):
    """Executor that completes every action instantly, running nothing.

    Because each action completes during its own admission, dependences
    are always already satisfied at enqueue time, the scheduler's live
    graph never holds more than the action being admitted, and capture
    of arbitrarily long programs stays O(1) in runtime state (the trace
    itself grows, of course).
    """

    def attach(self, runtime) -> None:
        self.runtime = runtime
        self._now = 0.0

    # -- handles & events ------------------------------------------------------

    def make_handle(self) -> _CaptureHandle:
        return _CaptureHandle()

    def event_done(self, event) -> bool:
        # Capture events never *report* completion: the recorded program
        # has not run, and layers that elide synchronization when a
        # producer polls complete (the OmpSs runtime, the linalg
        # dataflow helper) must behave as on a cold machine — otherwise
        # the captured graph would be missing exactly the edges the
        # analyzer exists to check. The scheduler is unaffected: its
        # completion bookkeeping goes through on_complete, and deps on
        # already-folded actions are reclassified by the recorder's
        # on_dangling_wait claim.
        return False

    def signal_completion(self, event, when: float) -> None:
        event.handle.done = True

    # -- provisioning ----------------------------------------------------------

    def make_stream(self, stream) -> None:
        pass

    def make_instance(self, buf, domain: int) -> None:
        return None  # capture instances carry no data

    # -- execution -------------------------------------------------------------

    def execute(self, action) -> None:
        # READY -> COMPLETE directly; no distinct running phase exists.
        self.runtime.scheduler.on_complete(action, when=self._now)

    # -- waiting ---------------------------------------------------------------

    def wait_events(
        self, events, wait_all: bool = True, timeout=None, scope=None
    ) -> None:
        pass  # everything already completed at admission

    def wait_all(self, timeout=None, scope=None) -> None:
        pass

    def now(self) -> float:
        return self._now

    def advance_host(self, dt: float) -> None:
        # The capture clock counts API calls, not seconds: it only has
        # to be monotonic so lifecycle records stay well-formed.
        self._now += 1.0


@contextlib.contextmanager
def capture_session():
    """Force capture mode on every runtime constructed in this scope.

    Yields the list that fills with the captured
    :class:`~repro.core.runtime.HStreams` instances (each carrying its
    recorder as ``runtime.capture``). Sessions do not nest — a nested
    entry raises :class:`~repro.core.errors.HStreamsInvalid` instead of
    silently corrupting the outer recording — and a session that exits
    with an error (including that one) leaves the registry clean, so a
    fresh session can always start afterwards.
    """
    from repro.core import runtime as runtime_mod

    if runtime_mod._capture_registry is not None:
        raise HStreamsInvalid("capture sessions do not nest")
    registry: List[Any] = []
    runtime_mod._capture_registry = registry
    try:
        yield registry
    finally:
        runtime_mod._capture_registry = None
