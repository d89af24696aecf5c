"""Buffer-lifetime and program-state lint passes over a captured trace.

Where the happens-before engine answers "can these two accesses
reorder?", the lints answer "does this access even make sense given the
life of the buffer instance it touches?" — reads of never-written
ranges, reads of evicted instances, writes that never make it back to
the host, completions nobody ever observes, and waits that can never be
satisfied. Each lint consumes the same program-ordered event feed the
HB engine does and emits :class:`~repro.analysis.diagnostics.Diagnostic`
objects through a shared deduplicating sink.

The lints deliberately judge the program in *capture order* (the one
interleaving the source thread actually produced); pairs of actions the
runtime could reorder are the race detector's jurisdiction, so the two
layers are complementary rather than overlapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import ActionRef, Diagnostic
from repro.analysis.hb import HBState
from repro.core.actions import ActionKind
from repro.core.capture import ActionEvent, BufferEvent
from repro.core.memory import (
    BufferCoherence,
    IntervalSet,
    apply_action_writes,
    instance_accesses,
)

__all__ = [
    "LintPass",
    "BufferStateLint",
    "UnwaitedEventLint",
    "DeadlockLint",
    "ZeroLengthOperandLint",
]


class LintPass:
    """A rule pass over the program-ordered event feed.

    ``emit(diagnostic, key)`` routes findings through the engine's
    deduplicating sink; ``key=None`` always appends.
    """

    def __init__(self, emit) -> None:
        self._emit = emit

    def feed(self, event, hb: HBState) -> None:
        """Incorporate one trace event."""

    def finish(self, hb: HBState) -> None:
        """Emit end-of-program findings."""


def _ref(event: ActionEvent) -> ActionRef:
    action = event.action
    return ActionRef(
        label=action.display,
        seq=action.seq,
        stream=action.stream.name if action.stream else None,
        site=event.site,
    )


class _BufState:
    """Per-buffer lint state: a replayed coherence record plus the
    lint-only bookkeeping (destroy site, touchers, last sink write)."""

    __slots__ = (
        "coh",
        "destroyed_site",
        "touchers",
        "last_sink_write",
    )

    def __init__(self, buffer) -> None:
        #: The shared coherence state machine, replayed in capture
        #: order (the live MemoryManager commits the same transitions
        #: at completion time).
        self.coh = BufferCoherence(buffer)
        self.destroyed_site: Optional[Tuple[str, int]] = None
        #: domain -> [(seq, ActionRef)] of actions touching the instance
        #: (pruned of host-observed entries at each evict).
        self.touchers: Dict[int, List[Tuple[int, ActionRef]]] = {}
        self.last_sink_write: Optional[ActionRef] = None

    @property
    def buffer(self):
        return self.coh.buffer

    @property
    def wrapped(self) -> bool:
        return self.coh.wrapped

    @property
    def lost(self) -> Dict[int, IntervalSet]:
        return self.coh.lost

    def valid_in(self, domain: int) -> IntervalSet:
        return self.coh.valid_in(domain)


class BufferStateLint(LintPass):
    """Buffer-lifetime rules: ``read-before-init``, ``stale-read``,
    ``use-after-evict``, ``use-after-destroy``, ``evict-in-flight``,
    and ``missing-d2h``."""

    def __init__(self, emit) -> None:
        super().__init__(emit)
        self._bufs: Dict[int, _BufState] = {}

    def _state(self, buffer) -> _BufState:
        st = self._bufs.get(buffer.uid)
        if st is None:
            st = self._bufs[buffer.uid] = _BufState(buffer)
        return st

    # -- event feed ------------------------------------------------------------

    def feed(self, event, hb: HBState) -> None:
        if isinstance(event, BufferEvent):
            self._feed_buffer(event, hb)
        elif isinstance(event, ActionEvent):
            self._feed_action(event)

    def _feed_buffer(self, ev: BufferEvent, hb: HBState) -> None:
        st = self._state(ev.buffer)
        if ev.kind == "destroy":
            st.destroyed_site = ev.site
        elif ev.kind == "evict":
            domain = ev.domain
            inflight = [
                (seq, ref)
                for seq, ref in st.touchers.get(domain, [])
                if not hb.host_observed(seq)
            ]
            st.touchers[domain] = []
            if inflight:
                refs = [ref for _, ref in inflight[:4]]
                self._emit(
                    Diagnostic(
                        rule="evict-in-flight",
                        message=(
                            f"buffer_evict({st.buffer.name!r}, domain "
                            f"{domain}) at "
                            + (f"{ev.site[0]}:{ev.site[1]}" if ev.site else "?")
                            + f" while {len(inflight)} earlier action(s) "
                            "touching the instance are not covered by any "
                            "host synchronization"
                        ),
                        actions=refs,
                        buffer=st.buffer.name,
                    ),
                    key=("evict-in-flight", st.buffer.uid, domain),
                )
            # Whatever was valid at the sink is gone; a later implicit
            # re-instantiation starts from zeros. (Dirty ranges stay:
            # the unretrieved result is still missing at the host.)
            st.coh.note_evict(domain)

    def _feed_action(self, ev: ActionEvent) -> None:
        action = ev.action
        for op in action.operands:
            st = self._state(op.buffer)
            if st.destroyed_site is not None:
                where = st.destroyed_site
                self._emit(
                    Diagnostic(
                        rule="use-after-destroy",
                        message=(
                            f"{action.display!r} references buffer "
                            f"{st.buffer.name!r}, destroyed at "
                            + (f"{where[0]}:{where[1]}" if where else "?")
                        ),
                        actions=[_ref(ev)],
                        buffer=st.buffer.name,
                    ),
                    key=("use-after-destroy", st.buffer.uid, action.seq),
                )
        # Reads are judged against the state *before* this action's own
        # writes land (an INOUT operand does not initialize itself).
        accesses = list(instance_accesses(action))
        for domain, op, reads, _writes in accesses:
            st = self._state(op.buffer)
            st.touchers.setdefault(domain, []).append((action.seq, _ref(ev)))
            if reads and action.kind is ActionKind.COMPUTE and op.nbytes > 0:
                self._check_read(ev, st, domain, op)
        # Write-side transitions are the memory subsystem's committed
        # state machine, replayed here in capture order.
        apply_action_writes(lambda b: self._state(b).coh, action)
        for domain, op, _reads, writes in accesses:
            if (
                writes
                and action.kind is ActionKind.COMPUTE
                and domain != 0
                and self._state(op.buffer).wrapped
            ):
                self._state(op.buffer).last_sink_write = _ref(ev)

    def _check_read(self, ev: ActionEvent, st: _BufState, domain, op) -> None:
        if domain == 0:
            # Host instances are allocated zeroed by the runtime and, in
            # the simulation benchmarks, deliberately carry synthetic
            # data nobody initializes; the hazard this family describes
            # is the *sink* read of data that never left the host.
            return
        if st.valid_in(domain).covers(op.offset, op.end):
            return
        where = f"[{op.offset}, {op.end})"
        if domain in st.lost and st.lost[domain].intersects(op.offset, op.end):
            self._emit(
                Diagnostic(
                    rule="use-after-evict",
                    message=(
                        f"{ev.action.display!r} reads buffer "
                        f"{st.buffer.name!r} {where} in domain {domain}, "
                        "but the instance was evicted and the range never "
                        "re-transferred (it re-instantiates as zeros)"
                    ),
                    actions=[_ref(ev)],
                    buffer=st.buffer.name,
                ),
                key=("use-after-evict", st.buffer.uid, domain),
            )
        elif st.wrapped and domain != 0:
            self._emit(
                Diagnostic(
                    rule="stale-read",
                    message=(
                        f"{ev.action.display!r} reads buffer "
                        f"{st.buffer.name!r} {where} in domain {domain}, "
                        "but the host-initialized data was never "
                        "transferred there (the sink instance is zeros)"
                    ),
                    actions=[_ref(ev)],
                    buffer=st.buffer.name,
                ),
                key=("stale-read", st.buffer.uid, domain),
            )
        else:
            self._emit(
                Diagnostic(
                    rule="read-before-init",
                    message=(
                        f"{ev.action.display!r} reads buffer "
                        f"{st.buffer.name!r} {where} in domain {domain}, "
                        "but no transfer or earlier task ever wrote that "
                        "range (uninitialized read)"
                    ),
                    actions=[_ref(ev)],
                    buffer=st.buffer.name,
                ),
                key=("read-before-init", st.buffer.uid, domain),
            )

    # -- end of program --------------------------------------------------------

    def finish(self, hb: HBState) -> None:
        for st in self._bufs.values():
            dirty = st.coh.dirty_union()
            if st.wrapped and dirty:
                spans = ", ".join(f"[{s}, {e})" for s, e in dirty.spans()[:4])
                self._emit(
                    Diagnostic(
                        rule="missing-d2h",
                        message=(
                            f"buffer {st.buffer.name!r} wraps host memory "
                            f"and was written at the sink ({spans}), but "
                            "the result was never transferred back — the "
                            "host array still holds pre-offload data"
                        ),
                        actions=(
                            [st.last_sink_write] if st.last_sink_write else []
                        ),
                        buffer=st.buffer.name,
                    ),
                    key=("missing-d2h", st.buffer.uid),
                )


class UnwaitedEventLint(LintPass):
    """``unwaited-event``: completions the program never observes.

    An action's completion is observed when a later action depends on
    its event, or a host synchronization (explicit wait, stream
    synchronize, thread synchronize) covers it — directly or through a
    dependent. Only the *tail* of an unobserved chain is reported.
    """

    def __init__(self, emit) -> None:
        super().__init__(emit)
        self._actions: List[ActionEvent] = []

    def feed(self, event, hb: HBState) -> None:
        if isinstance(event, ActionEvent):
            self._actions.append(event)

    def finish(self, hb: HBState) -> None:
        by_stream: Dict[str, List[ActionEvent]] = {}
        for ev in self._actions:
            seq = ev.action.seq
            if hb.host_observed(seq) or seq in hb.has_dependent:
                continue
            lane = ev.action.stream.name if ev.action.stream else "?"
            by_stream.setdefault(lane, []).append(ev)
        for lane, evs in by_stream.items():
            diag = Diagnostic(
                rule="unwaited-event",
                message=(
                    f"{len(evs)} action(s) in stream {lane} complete "
                    "unobserved: nothing waits their events and no host "
                    "synchronization covers them before the program ends"
                ),
                actions=[_ref(e) for e in evs[:4]],
            )
            diag.occurrences = len(evs)
            self._emit(diag, key=None)


class DeadlockLint(LintPass):
    """``deadlock``: waits that can never be satisfied.

    The enqueue order of a single runtime is a topological order of its
    dependence graph, so a *true* in-runtime cycle cannot be expressed
    through the public API (see DESIGN.md); what programs actually
    write is the degenerate cycle — a wait on an event no action of
    this program fires (a bare event, or one from another runtime whose
    work is mutually waiting). Defensively, a back edge in a hand-built
    trace is reported as a cycle too.
    """

    def feed(self, event, hb: HBState) -> None:
        if not isinstance(event, ActionEvent):
            return
        if event.dangling:
            names = ", ".join(event.dangling)
            self._emit(
                Diagnostic(
                    rule="deadlock",
                    message=(
                        f"{event.action.display!r} waits on {names}: no "
                        "action of this program fires that event, so the "
                        "wait can never be satisfied (cyclic or dangling "
                        "cross-stream wait)"
                    ),
                    actions=[_ref(event)],
                ),
                key=("deadlock", event.action.seq),
            )
        for dep in event.dep_seqs:
            if dep >= event.action.seq:
                self._emit(
                    Diagnostic(
                        rule="deadlock",
                        message=(
                            f"dependence cycle: {event.action.display!r} "
                            f"(seq {event.action.seq}) waits on seq {dep}, "
                            "which does not precede it in enqueue order"
                        ),
                        actions=[_ref(event)],
                    ),
                    key=("deadlock-cycle", event.action.seq, dep),
                )


class ZeroLengthOperandLint(LintPass):
    """``zero-length-operand``: empty ranges order nothing."""

    def feed(self, event, hb: HBState) -> None:
        if not isinstance(event, ActionEvent):
            return
        for op in event.action.operands:
            if op.nbytes == 0:
                self._emit(
                    Diagnostic(
                        rule="zero-length-operand",
                        message=(
                            f"{event.action.display!r} declares a "
                            f"zero-length operand on buffer "
                            f"{op.buffer.name!r} at offset {op.offset}: "
                            "empty ranges never conflict, so this operand "
                            "imposes no ordering at all"
                        ),
                        actions=[_ref(event)],
                        buffer=op.buffer.name,
                    ),
                    key=("zero-length-operand", event.site or event.action.seq),
                )
