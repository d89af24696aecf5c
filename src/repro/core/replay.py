"""Graph capture and replay: record an action DAG once, re-admit it cheaply.

Steady-state pipelines (RTM is the canonical one) enqueue the *same*
action DAG every iteration; per-action Python admission — operand
collection, action construction, and above all the stream-window
dependence scan — then dominates runtime, the overhead class CUDA
Graphs eliminate by recording a stream graph once and replaying it.
This module is the hStreams analogue:

* ``with hs.capture_graph() as g:`` records every action enqueued in
  the scope into a :class:`GraphTemplate`. Capture is **warm**: the
  recorded iteration still executes normally (thread or sim backend),
  so capture costs one ordinary iteration, not a dry run.
* The template's dependence edges are recomputed by the stream's own
  policy over the *full* capture history
  (:func:`~repro.core.capture.policy_dep_seqs`: the scheduler's scan on
  a window that never retires) plus the explicit event waits. That is
  schedule-independent, and its closure orders everything any replay
  needs — "it happened to be complete at enqueue time" is timing, not
  ordering.
* ``hs.replay(g)`` re-admits the DAG as one batch through
  :meth:`~repro.core.scheduler.Scheduler.admit_instance` — the same
  admission loop every enqueue runs, handed each clone's template
  producers instead of a window scan (the dependence scan counters stay
  at zero during replay). The batch is admitted or rejected whole.
* ``g.instantiate(bindings)`` rebinds buffer operands (capture buffer →
  same-size replacement), the parameterized-slot mechanism: capture
  once on one set of tiles, replay across the working set.

Replayed actions are full citizens of the runtime: the memory manager
re-decides transfer elision against *this* replay's coherence state
(clones arrive with ``elided`` cleared), fault injectors arm them in
template order (replay admits on the single source thread, so arming
stays deterministic, exactly as for enqueues), and failure policies
poison/retry/cancel them identically on both backends.

Templates are pure action DAGs over pre-existing streams and buffers:
host synchronizations, buffer create/destroy/evict, and stream
lifecycle changes inside a capture scope raise
:class:`~repro.core.errors.HStreamsInvalid`. Replay requires the
template's streams to be quiescent (synchronize first) — that is what
makes dropping capture-time edges to *pre-capture* work sound: anything
the captured iteration depended on from before the scope has completed
by the time a replay is admissible.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.actions import Action, ActionKind, Operand
from repro.core.capture import ActionEvent, ProgramTrace, policy_dep_seqs
from repro.core.errors import HStreamsBadArgument, HStreamsInvalid
from repro.core.scheduler import SchedulerObserver
from repro.core.sites import user_site
from repro.core.sync import caller_locked, guarded_by

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.buffer import Buffer
    from repro.core.events import HEvent
    from repro.core.runtime import HStreams
    from repro.core.stream import Stream

__all__ = ["GraphRecorder", "GraphTemplate", "GraphInstance"]


@guarded_by("_lock", "_index_by_seq", "_pos")
class GraphRecorder(SchedulerObserver):
    """Scheduler observer filling a :class:`GraphTemplate`.

    Registered by :meth:`~repro.core.runtime.HStreams.capture_graph`
    for the duration of the scope. For every admitted action it resolves
    the template-internal dependence edges (explicit event waits plus
    full-history policy deps, mapped from global seqs to template
    indices) and appends a matching
    :class:`~repro.core.capture.ActionEvent` to the template's
    :class:`~repro.core.capture.ProgramTrace`, so the hazard analyzer
    can validate the template directly (:meth:`GraphTemplate.validate`).
    """

    def __init__(self, runtime: "HStreams") -> None:
        self.runtime = runtime
        self.template = GraphTemplate(runtime)
        self._shadows: dict = {}
        # The scheduler's lock guards the recorder's state: every
        # mutation happens in on_enqueue, which the scheduler invokes
        # with its lock held.
        self._lock = runtime.scheduler._lock
        #: Global action seq -> template index, for edge mapping.
        self._index_by_seq: Dict[int, int] = {}
        self._pos = 0

    # -- scheduler callbacks ---------------------------------------------------

    @caller_locked("_lock")
    def on_enqueue(
        self,
        action: "Action",
        deps: List["Action"],
        dangling: List["HEvent"],
    ) -> None:
        by_seq = {d.seq: d for d in deps}
        seqs = set(by_seq)
        seqs.update(policy_dep_seqs(self._shadows, action))
        ordered = tuple(sorted(seqs))
        dep_idx: List[int] = []
        for seq in ordered:
            idx = self._index_by_seq.get(seq)
            if idx is None:
                # A dependence on pre-capture work. Dropped from the
                # template: replay preflight requires the involved
                # streams to be quiescent, which subsumes any edge to
                # work that predates the capture scope. Policy deps are
                # same-stream (already a template stream); an explicit
                # wait may point at a foreign stream — record it so the
                # preflight covers it too.
                self.template.external_deps += 1
                dep = by_seq.get(seq)
                if dep is not None and dep.stream is not None:
                    ext = self.template.external_streams
                    if dep.stream not in ext:
                        ext.append(dep.stream)
            else:
                dep_idx.append(idx)
        t = self.template
        self._index_by_seq[action.seq] = len(t.protos)
        t.protos.append(action)
        t.dep_indices.append(tuple(dep_idx))
        self._pos += 1
        t.trace.events.append(
            ActionEvent(
                pos=self._pos,
                action=action,
                dep_seqs=ordered,
                site=user_site(),
            )
        )

    def on_dangling_wait(self, action: "Action", event: "HEvent") -> bool:
        # Under a capture-only runtime every completed-and-folded
        # producer lands here (capture events never report complete);
        # those are ordinary edges. Waits on truly foreign events are
        # left unclaimed so the scheduler's normal rejection holds.
        return event.backend is self.runtime.backend

    def on_host_sync(self, kind, stream=None, events=()) -> None:
        raise HStreamsInvalid(
            f"cannot {kind} inside capture_graph(): a graph template is a "
            "pure action DAG — move host synchronization outside the "
            "capture scope (replay each captured segment, syncing between)"
        )

    def on_buffer(self, kind, buf, domain=None) -> None:
        raise HStreamsInvalid(
            f"cannot {kind} buffer {buf.name!r} inside capture_graph(): "
            "templates replay over pre-existing buffers — create/destroy/"
            "evict outside the capture scope (rebind replacements via "
            "instantiate(bindings))"
        )

    def on_stream_create(self, stream) -> None:
        raise HStreamsInvalid(
            f"cannot create stream {stream.name!r} inside capture_graph(): "
            "templates replay into pre-existing streams"
        )

    def on_stream_destroy(self, stream) -> None:
        raise HStreamsInvalid(
            f"cannot destroy stream {stream.name!r} inside capture_graph(): "
            "a template holds actions bound to it"
        )


class GraphTemplate:
    """A captured, parameterized action DAG.

    Produced by :meth:`~repro.core.runtime.HStreams.capture_graph`;
    consumed by :meth:`instantiate` /
    :meth:`~repro.core.runtime.HStreams.replay`. The prototypes keep the
    exact operands, kernels, costs, and labels of the captured actions;
    ``dep_indices[i]`` are the template-internal producers of prototype
    ``i`` (indices into ``protos``), pre-computed once at capture.
    """

    def __init__(self, runtime: "HStreams") -> None:
        self.runtime = runtime
        #: The captured actions, in admission order.
        self.protos: List[Action] = []
        #: Per-prototype producer indices into :attr:`protos`.
        self.dep_indices: List[Tuple[int, ...]] = []
        #: Capture-time edges to pre-capture work, dropped from the
        #: template (covered by the replay quiescence preflight).
        self.external_deps = 0
        #: Streams outside :attr:`streams` that dropped external deps
        #: pointed into; replay's quiescence preflight covers them too.
        self.external_streams: List["Stream"] = []
        #: The capture-scope trace, for :meth:`validate` (hsan).
        self.trace = ProgramTrace()
        #: Set on clean ``capture_graph()`` exit; replaying a template
        #: whose capture scope raised is refused.
        self.finalized = False
        #: Memoized :meth:`GraphInstance.instance_sites` result for
        #: unbound instances — the (buffer, domain) set is a template
        #: property until a rebinding changes the buffers.
        self._sites: Optional[List[Tuple["Buffer", int]]] = None

    def __len__(self) -> int:
        return len(self.protos)

    @property
    def streams(self) -> List["Stream"]:
        """The streams the template enqueues into, in first-use order."""
        out: List["Stream"] = []
        seen: set = set()
        for proto in self.protos:
            stream = proto.stream
            if stream is not None and stream.id not in seen:
                seen.add(stream.id)
                out.append(stream)
        return out

    def validate(self) -> list:
        """Run the hazard analyzer's rules over the captured trace.

        Returns the analyzer's diagnostics (empty = clean). A synthetic
        trailing ``thread_synchronize`` is appended for analysis: a
        template cannot contain host syncs (they are rejected during
        capture), but every replay cycle ends with one, so end-of-program
        lints like ``unwaited-event`` would otherwise fire on every
        template. Lazy import: ``core`` stays importable without
        :mod:`repro.analysis`.
        """
        self._check_finalized()
        from repro.analysis.checker import analyze_trace
        from repro.core.capture import SyncEvent

        events = list(self.trace.events)
        events.append(SyncEvent(pos=len(events) + 1, kind="thread_synchronize"))
        return analyze_trace(ProgramTrace(events=events))

    def _check_finalized(self) -> None:
        if not self.finalized:
            raise HStreamsInvalid(
                "graph template is not finalized: its capture_graph() scope "
                "is still open or exited with an error"
            )

    # -- instantiation ---------------------------------------------------------

    def instantiate(
        self, bindings: Optional[Dict["Buffer", "Buffer"]] = None
    ) -> "GraphInstance":
        """Build a replayable instance, optionally rebinding buffers.

        ``bindings`` maps capture-time buffers to same-size replacements
        (the template's parameterized operand slots); omitted buffers
        keep their captured binding. Each instance is single-use —
        completion events are per-admission — so replay-many means
        instantiate-many (the clone path is deliberately cheap).
        """
        self._check_finalized()
        remap: Dict[int, "Buffer"] = {}
        if bindings:
            for old, new in bindings.items():
                if new.nbytes != old.nbytes:
                    raise HStreamsBadArgument(
                        f"cannot rebind buffer {old.name!r} ({old.nbytes}B) "
                        f"to {new.name!r} ({new.nbytes}B): sizes must match"
                    )
                remap[old.uid] = new
        actions: List[Action] = []
        for proto in self.protos:
            a = proto.clone_for_replay()
            if remap:
                self._rebind(a, remap)
            actions.append(a)
        return GraphInstance(self, actions, rebound=bool(remap))

    def _rebind(self, action: Action, remap: Dict[int, "Buffer"]) -> None:
        """Swap rebound buffers into one cloned action's operands/args."""
        if any(op.buffer.uid in remap for op in action.operands):
            action.operands = tuple(
                self._rebind_operand(op, remap) for op in action.operands
            )
            # The footprint caches buffer uids: rebuild over the new
            # operands (zero-length operands stay excluded).
            action.footprint = tuple(
                (op.buffer.uid, op.offset, op.end, op.mode.writes)
                for op in action.operands
                if op.nbytes > 0
            )
        if action.args:
            action.args = tuple(
                self._rebind_arg(item, remap) for item in action.args
            )

    @staticmethod
    def _rebind_operand(op: Operand, remap: Dict[int, "Buffer"]) -> Operand:
        new = remap.get(op.buffer.uid)
        if new is None:
            return op
        if op.mode.writes and new.read_only:
            raise HStreamsBadArgument(
                f"cannot rebind a writing operand to read-only buffer "
                f"{new.name!r}"
            )
        # dataclasses.replace re-runs validation against the new buffer;
        # equal sizes guarantee the range still fits.
        return _dc_replace(op, buffer=new)

    def _rebind_arg(self, item, remap: Dict[int, "Buffer"]):
        if isinstance(item, Operand):
            return self._rebind_operand(item, remap)
        if getattr(item, "uid", None) in remap:  # bare Buffer argument
            return remap[item.uid]
        return item


class GraphInstance:
    """One replayable instantiation of a :class:`GraphTemplate`.

    Holds the cloned actions with their pre-computed producer lists and
    the buffer instances to ensure before admission. Single-use:
    :meth:`~repro.core.runtime.HStreams.replay` consumes it and returns
    it, so completion events are reachable as :attr:`events`.
    """

    def __init__(
        self,
        template: GraphTemplate,
        actions: List[Action],
        rebound: bool = False,
    ) -> None:
        self.template = template
        self.actions = actions
        #: Whether :meth:`GraphTemplate.instantiate` rebound any buffer
        #: (rebinding invalidates the template's memoized site set).
        self.rebound = rebound
        self._dep_lists: Optional[List[Tuple[Action, ...]]] = None
        self.consumed = False

    @property
    def dep_lists(self) -> List[Tuple[Action, ...]]:
        """Per-action producer actions (template edges over the clones).

        What :meth:`~repro.core.scheduler.Scheduler.admit_instance`
        wires in place of a window scan: the graph edges, the admission
        poison check and the observers' ``deps`` all read it.
        """
        if self._dep_lists is None:
            get = self.actions.__getitem__
            self._dep_lists = [
                tuple(map(get, idx)) for idx in self.template.dep_indices
            ]
        return self._dep_lists

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def events(self) -> List["HEvent"]:
        """The completion events, in template order (set by replay)."""
        return [a.completion for a in self.actions]

    def instance_sites(self) -> List[Tuple["Buffer", int]]:
        """The (buffer, domain) instances replay must ensure exist.

        Mirrors the enqueue paths: compute operands in the sink domain;
        transfer operands at both endpoints. Deduplicated — ensured once
        per replay, not once per action. Unbound instances share the
        template's memoized set (the buffers are the prototypes' own, so
        the sites cannot differ between replays); rebound instances
        recompute over their swapped buffers.
        """
        if not self.rebound and self.template._sites is not None:
            return self.template._sites
        out: List[Tuple["Buffer", int]] = []
        seen: set = set()

        def need(buf: "Buffer", domain: int) -> None:
            key = (buf.uid, domain)
            if key not in seen:
                seen.add(key)
                out.append((buf, domain))

        for action in self.actions:
            stream = action.stream
            if stream is None:
                continue
            if action.kind is ActionKind.COMPUTE:
                for op in action.operands:
                    need(op.buffer, stream.domain)
            elif action.kind is ActionKind.XFER:
                op = action.operands[0]
                need(op.buffer, 0)
                need(op.buffer, stream.domain)
                if action.src_domain is not None:
                    need(op.buffer, action.src_domain)
        if not self.rebound:
            self.template._sites = out
        return out
