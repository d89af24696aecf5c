"""Action types: what gets enqueued into streams.

Three kinds of actions exist (paper §II): compute tasks, data transfers,
and synchronizations. Every action carries *memory operands* — ranges of
buffers with an access mode — which are the basis of the dependence
analysis that lets the runtime execute actions out of order without
violating the stream's FIFO semantic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.core.errors import HStreamsBadArgument

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.buffer import Buffer
    from repro.core.events import HEvent
    from repro.core.stream import Stream
    from repro.sim.kernels import KernelCost

__all__ = [
    "OperandMode",
    "ActionKind",
    "XferDirection",
    "Operand",
    "Action",
    "next_action_seq",
]

_action_ids = itertools.count()


def next_action_seq() -> int:
    """Allot a fresh global action sequence number.

    Graph replay constructs actions by cloning template prototypes
    instead of through ``Action(...)``, so it draws from the same
    counter here — sequence numbers stay globally monotonic, which is
    what keeps the dependence graph acyclic by construction (edges may
    only point from older to newer seqs).
    """
    return next(_action_ids)


class OperandMode(enum.Enum):
    """How an action accesses an operand range.

    ``reads`` and ``writes`` are plain member attributes, set once
    below: admission and completion test them per operand.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    reads: bool
    writes: bool


for _mode in OperandMode:
    _mode.reads = _mode is not OperandMode.OUT
    _mode.writes = _mode is not OperandMode.IN
del _mode


class ActionKind(enum.Enum):
    """The three enqueueable action categories plus alloc bookkeeping."""

    COMPUTE = "compute"
    XFER = "xfer"
    SYNC = "sync"


class XferDirection(enum.Enum):
    """Transfer direction relative to the stream's endpoints."""

    SRC_TO_SINK = "src_to_sink"  # host (source) -> sink domain
    SINK_TO_SRC = "sink_to_src"  # sink domain -> host (source)


@dataclass(frozen=True, slots=True)
class Operand:
    """A byte range of a buffer with an access mode.

    In the C library, operands are proxy-space pointers passed as task
    arguments; here they are explicit, which keeps the same dependence
    semantics while being natural Python.
    """

    buffer: "Buffer"
    offset: int
    nbytes: int
    mode: OperandMode = OperandMode.INOUT
    #: Optional typing for sink-side resolution under the thread backend:
    #: the operand resolves to a numpy view with this dtype and shape.
    dtype: Any = None
    shape: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.offset < 0 or self.nbytes < 0:
            raise HStreamsBadArgument(
                f"operand range ({self.offset}, {self.nbytes}) must be non-negative"
            )
        if self.offset + self.nbytes > self.buffer.nbytes:
            raise HStreamsBadArgument(
                f"operand [{self.offset}, {self.offset + self.nbytes}) exceeds "
                f"buffer {self.buffer.name!r} of {self.buffer.nbytes} bytes"
            )

    @property
    def end(self) -> int:
        """One past the last byte of the range."""
        return self.offset + self.nbytes

    def overlaps(self, other: "Operand") -> bool:
        """True when both ranges touch the same bytes of the same buffer.

        A zero-length operand touches no bytes, so it never overlaps —
        and therefore never conflicts: empty operands impose **no
        ordering** under :class:`~repro.core.dependences.RelaxedPolicy`
        (strict-FIFO streams still order every action by position).
        Declaring an empty range is almost always a bug in the caller's
        size arithmetic; the hazard analyzer flags it as
        ``zero-length-operand``.
        """
        if self.buffer is not other.buffer or self.nbytes == 0 or other.nbytes == 0:
            return False
        return self.offset < other.end and other.offset < self.end

    def conflicts_with(self, other: "Operand") -> bool:
        """True when the ranges overlap and at least one side writes."""
        return (self.mode.writes or other.mode.writes) and self.overlaps(other)

    @property
    def proxy_address(self) -> int:
        """Source-proxy address of the first byte (paper's unified space)."""
        return self.buffer.proxy_base + self.offset


#: One cached footprint entry: ``(buffer uid, start, end, writes)``.
FootprintEntry = Tuple[int, int, int, bool]


@dataclass(slots=True)
class Action:
    """One enqueued unit of work, bound to a stream at enqueue time.

    An action is a plain description of the work: scheduling state
    (readiness counters, dependent lists, lifecycle timestamps) lives on
    its :class:`~repro.core.graph.ActionNode`, never on the action
    itself.
    """

    kind: ActionKind
    stream: Optional["Stream"]
    operands: Tuple[Operand, ...] = ()
    # compute
    kernel: str = ""
    args: Tuple[Any, ...] = ()
    cost: Optional["KernelCost"] = None
    # transfer
    direction: Optional[XferDirection] = None
    nbytes: int = 0
    #: Origin domain of a SRC_TO_SINK transfer when the payload is
    #: forwarded from a peer instance instead of the host (collectives'
    #: pipelined hops). ``None`` keeps the classic host-rooted meaning.
    src_domain: Optional[int] = None
    #: Set by the memory manager at admission when the destination
    #: instance is already expected-valid over the operand range: the
    #: backends skip the byte movement, but the action still flows
    #: through the scheduler for dependence ordering.
    elided: bool = False
    # bookkeeping
    label: str = ""
    seq: int = field(default_factory=lambda: next(_action_ids))
    completion: Optional["HEvent"] = None
    #: Explicit event waits (``event_stream_wait``); empty for the
    #: common enqueue, which then allocates nothing for them.
    deps: Sequence["HEvent"] = ()
    barrier: bool = False  # sync action with no operands orders everything
    #: Cached operand footprint: one ``(buffer uid, start, end, writes)``
    #: interval per non-empty operand, computed once at construction.
    #: This is what ``conflicts_with`` and the stream window's conflict
    #: index compare — an interval check, never an operand rebuild.
    footprint: Tuple[FootprintEntry, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Zero-length operands touch no bytes: they are excluded here so
        # they stay dependence-inert under the relaxed policy.
        self.footprint = tuple(
            (op.buffer.uid, op.offset, op.offset + op.nbytes, op.mode.writes)
            for op in self.operands
            if op.nbytes > 0
        )

    def clone_for_replay(self) -> "Action":
        """A fresh admissible copy of this action (the replay hot path).

        Shares the immutable description (operands, args, cost,
        footprint) with the template prototype and resets only the
        per-admission state: a new sequence number, no completion event,
        no explicit event deps (replay supplies edges directly), and
        ``elided`` cleared so the memory manager re-decides transfer
        elision against the coherence state *of this replay*, not of the
        capture run. Built via ``__new__`` + slot stores rather than the
        dataclass constructor — this runs once per action per replay and
        must not re-derive the footprint.
        """
        new = object.__new__(Action)
        new.kind = self.kind
        new.stream = self.stream
        new.operands = self.operands
        new.kernel = self.kernel
        new.args = self.args
        new.cost = self.cost
        new.direction = self.direction
        new.nbytes = self.nbytes
        new.src_domain = self.src_domain
        new.elided = False
        new.label = self.label
        new.seq = next(_action_ids)
        new.completion = None
        new.deps = ()
        new.barrier = self.barrier
        new.footprint = self.footprint
        return new

    def conflicts_with(self, other: "Action") -> bool:
        """Operand-level conflict between two actions.

        A barrier sync conflicts with everything in its stream.
        """
        if self.barrier or other.barrier:
            return True
        for uid_a, start_a, end_a, writes_a in self.footprint:
            for uid_b, start_b, end_b, writes_b in other.footprint:
                if (
                    uid_a == uid_b
                    and (writes_a or writes_b)
                    and start_a < end_b
                    and start_b < end_a
                ):
                    return True
        return False

    @property
    def display(self) -> str:
        """Short label for traces."""
        if self.label:
            return self.label
        if self.kind is ActionKind.COMPUTE:
            return f"{self.kernel}#{self.seq}"
        if self.kind is ActionKind.XFER:
            tag = "h2d" if self.direction is XferDirection.SRC_TO_SINK else "d2h"
            return f"xfer-{tag}#{self.seq}"
        return f"sync#{self.seq}"


def as_operands(items: Sequence) -> Tuple[Operand, ...]:
    """Normalize a mixed sequence of operands/buffers to ``Operand`` tuples.

    Bare buffers become whole-buffer INOUT operands — matching the C
    library, where task arguments are proxy pointers with no in/out
    annotation and the runtime must assume read-write.
    """
    out: List[Operand] = []
    for item in items:
        if isinstance(item, Operand):
            out.append(item)
        elif hasattr(item, "all_inout"):
            out.append(item.all_inout())
        else:
            raise HStreamsBadArgument(
                f"operand must be an Operand or Buffer, got {type(item).__name__}"
            )
    return tuple(out)
