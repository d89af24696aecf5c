"""The backend-agnostic action dependence graph.

Every enqueued action becomes a node with an explicit lifecycle::

    ENQUEUED --> READY --> RUNNING --> COMPLETE
        \\          \\          \\---> FAILED
         \\          \\--------------^    (RUNNING --> READY on retry)
          \\-> CANCELLED

* **ENQUEUED** — the action entered its stream; dependences are still
  outstanding.
* **READY** — every dependence completed; the action has been handed to
  the executor (backend) for dispatch.
* **RUNNING** — the executor began real (or virtual) execution.
* **COMPLETE** / **FAILED** — the action finished; its node is retired
  from the graph and folded into the scheduler's metrics.
* **CANCELLED** — a dependence failed and the scheduler's failure
  policy poisoned this action: its kernel never runs, its completion
  event still fires (so host waits cannot hang), and its
  :attr:`ActionNode.error` is an
  :class:`~repro.core.errors.HStreamsCancelled` chaining the root
  failure.

Under ``failure_policy="retry"`` a RUNNING action that fails with a
transient error moves back to READY (the one legal backwards edge) and
is re-dispatched after backoff; :attr:`ActionNode.attempts` counts the
retries.

Edges run from a dependence (producer) to its dependent (consumer). The
graph is acyclic *by construction*: actions enqueue one at a time with
monotonically increasing sequence numbers, and an edge may only point
from an older action to a newer one. :meth:`ActionGraph.add` enforces
that invariant — a back edge means runtime corruption, and is reported
as a cycle. Deadlocks (actions waiting on events that will
never fire, e.g. a cross-stream wait on work that was never enqueued)
are detectable via :meth:`ActionGraph.stalled`.

The graph carries no backend-specific state: readiness counters and
dependent lists live on the nodes here, not monkey-patched onto
:class:`~repro.core.actions.Action` (which stays a plain description of
the work).
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import HStreamsInternalError
from repro.core.sync import caller_locked, guarded_by

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action

__all__ = ["ActionState", "ActionRecord", "ActionNode", "ActionGraph"]


class ActionState(enum.Enum):
    """Lifecycle states of an enqueued action.

    Each member carries its legal successors (``successors``, a tuple)
    and whether it is final (``is_terminal``), both derived once from
    :data:`_TRANSITIONS` below. Lifecycle checks on the completion path
    are then a C-level identity scan of a short tuple — ``Enum.__hash__``
    is a Python-level call, too dear to pay per transition.
    """

    ENQUEUED = "enqueued"
    READY = "ready"
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: The states this one may move to (see :data:`_TRANSITIONS`).
    successors: Tuple["ActionState", ...]
    #: Whether the action finished (successfully or not).
    is_terminal: bool


#: Legal lifecycle transitions. READY -> COMPLETE/FAILED is allowed so
#: executors that finish trivial actions without a distinct "running"
#: phase (e.g. aliased transfers) stay valid. RUNNING/READY -> READY is
#: the retry edge; ENQUEUED/READY -> CANCELLED is failure poisoning
#: (READY covers the race where the last dependence completes and a
#: sibling producer fails before the dispatched action starts).
_TRANSITIONS = {
    ActionState.ENQUEUED: (ActionState.READY, ActionState.CANCELLED),
    ActionState.READY: (
        ActionState.RUNNING,
        ActionState.COMPLETE,
        ActionState.FAILED,
        ActionState.CANCELLED,
        ActionState.READY,
    ),
    ActionState.RUNNING: (
        ActionState.COMPLETE,
        ActionState.FAILED,
        ActionState.READY,
    ),
    ActionState.COMPLETE: (),
    ActionState.FAILED: (),
    ActionState.CANCELLED: (),
}

for _state, _succ in _TRANSITIONS.items():
    _state.successors = _succ
    _state.is_terminal = not _succ
del _state, _succ


class ActionRecord(NamedTuple):
    """Immutable lifecycle summary of one finished action.

    Timestamps are on the owning backend's clock (wall seconds for the
    thread backend, virtual seconds for the sim backend). A tuple, not a
    dataclass: one is built per retired action.
    """

    seq: int
    kind: str
    stream_id: int
    label: str
    state: str
    t_enqueue: float
    t_ready: float
    t_start: float
    t_end: float
    #: ``str(error)`` for failed/cancelled actions, else None.
    error: Optional[str] = None
    #: How many retry attempts the action consumed before finishing.
    retries: int = 0

    @property
    def dep_stall(self) -> float:
        """Time spent ENQUEUED waiting on dependences."""
        return self.t_ready - self.t_enqueue

    @property
    def dispatch_stall(self) -> float:
        """Time spent READY waiting for the executor to start it."""
        return self.t_start - self.t_ready

    @property
    def exec_time(self) -> float:
        """Time spent executing (RUNNING to terminal)."""
        return self.t_end - self.t_start

    @property
    def total_latency(self) -> float:
        """Enqueue-to-completion latency."""
        return self.t_end - self.t_enqueue


class ActionNode:
    """Graph node: one in-flight action plus its scheduling state."""

    __slots__ = (
        "action",
        "state",
        "waiting",
        "dependents",
        "t_enqueue",
        "t_ready",
        "t_start",
        "t_end",
        "error",
        "attempts",
    )

    def __init__(self, action: "Action", t_enqueue: float):
        self.action = action
        self.state = ActionState.ENQUEUED
        #: Number of unfinished dependences gating this node.
        self.waiting = 0
        #: Nodes that must be notified when this one finishes.
        self.dependents: List["ActionNode"] = []
        self.t_enqueue = t_enqueue
        self.t_ready: Optional[float] = None
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self.error: Optional[BaseException] = None
        #: Retry attempts consumed under ``failure_policy="retry"``.
        self.attempts = 0

    def transition(self, new: ActionState) -> None:
        """Move to ``new``, validating against the lifecycle machine."""
        if new not in self.state.successors:
            raise HStreamsInternalError(
                f"illegal lifecycle transition {self.state.value} -> "
                f"{new.value} for {self.action.display!r}"
            )
        self.state = new

    def record(self) -> ActionRecord:
        """Snapshot this node as an immutable lifecycle record.

        Missing timestamps backfill from the next earlier one (a node
        that never ran reads as zero-length stalls). ``_value_`` is the
        member's plain value slot: ``Enum.value`` is a Python-level
        property.
        """
        action = self.action
        t_enqueue = self.t_enqueue
        t_end = self.t_end
        if t_end is None:
            t_end = t_enqueue
        t_ready = self.t_ready
        if t_ready is None:
            t_ready = t_end
        t_start = self.t_start
        if t_start is None:
            t_start = t_ready
        stream = action.stream
        error = self.error
        return ActionRecord(
            action.seq,
            action.kind._value_,
            stream.id if stream is not None else -1,
            action.display,
            self.state._value_,
            t_enqueue,
            t_ready,
            t_start,
            t_end,
            None if error is None else str(error),
            self.attempts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ActionNode {self.action.display} {self.state.value} "
            f"waiting={self.waiting}>"
        )


def _cycle_error(dep: ActionNode, node: ActionNode) -> HStreamsInternalError:
    return HStreamsInternalError(
        f"dependence cycle: {node.action.display!r} cannot wait on "
        f"{dep.action.display!r} (edge runs backwards in enqueue order)"
    )


@guarded_by("_lock", "_nodes")
class ActionGraph:
    """In-flight actions and the dependence edges between them.

    Nodes are keyed by the action's global sequence number; finished
    nodes are popped immediately (incremental retirement), so the graph
    holds only the live frontier — its size is the number of in-flight
    actions, not the program length.

    Locking: the graph has no lock of its own — every method runs under
    the owning scheduler's lock (the ``caller_locked`` contracts the
    rtsan passes verify). Standalone graphs (unit tests) pass no lock
    and are single-threaded.
    """

    def __init__(self, lock=None) -> None:
        #: The owning scheduler's lock; None standalone.
        self._lock = lock
        self._nodes: Dict[int, ActionNode] = {}

    @caller_locked("_lock")
    def __len__(self) -> int:
        return len(self._nodes)

    @caller_locked("_lock")
    def add(
        self, action: "Action", t_enqueue: float, deps: Sequence["Action"] = ()
    ) -> ActionNode:
        """Insert a node for a newly admitted action, edged after the
        live nodes of its producers ``deps``.

        Producers that already finished resolve to no node — a satisfied
        dependence wires no edge.
        """
        nodes = self._nodes
        if action.seq in nodes:
            raise HStreamsInternalError(
                f"action {action.display!r} enqueued twice"
            )
        node = ActionNode(action, t_enqueue)
        seq = action.seq
        waiting = 0
        for dep in deps:
            dep_node = nodes.get(dep.seq)
            if dep_node is not None:
                if dep.seq >= seq:
                    raise _cycle_error(dep_node, node)
                dep_node.dependents.append(node)
                waiting += 1
        node.waiting = waiting
        nodes[seq] = node
        return node

    @caller_locked("_lock")
    def get(self, action: Optional["Action"]) -> Optional[ActionNode]:
        """The live node for ``action``, or None if finished/foreign."""
        if action is None:
            return None
        return self._nodes.get(action.seq)

    @caller_locked("_lock")
    def pop(self, node: ActionNode) -> None:
        """Retire a finished node from the live set."""
        self._nodes.pop(node.action.seq, None)

    @caller_locked("_lock")
    def nodes(self) -> Iterator[ActionNode]:
        """All live nodes in enqueue order."""
        return iter(list(self._nodes.values()))

    @caller_locked("_lock")
    def stalled(self) -> List[ActionNode]:
        """Deadlock probe: blocked nodes when nothing can make progress.

        Returns the ENQUEUED nodes iff no node is READY or RUNNING (and
        at least one node is blocked) — i.e. every in-flight action is
        waiting on an event that no remaining work will ever fire.
        """
        blocked: List[ActionNode] = []
        for node in self._nodes.values():
            if node.state in (ActionState.READY, ActionState.RUNNING):
                return []
            if node.state is ActionState.ENQUEUED:
                blocked.append(node)
        return blocked
