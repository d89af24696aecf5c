"""The happens-before engine: vector clocks over streams, events, and
host syncs, plus the cross-stream data-race detector.

Ordering in an hStreams program comes from exactly three mechanisms:

1. **intra-stream FIFO policy** — a stream orders a new action after its
   conflicting predecessors (relaxed) or its immediate predecessor
   (strict FIFO); the scheduler resolves these into explicit dependence
   edges at admission, which capture records per action;
2. **events** — ``event_stream_wait`` adds cross-stream edges from the
   waited actions to the sync action;
3. **host synchronization** — once the source thread blocks on work
   (``event_wait`` / ``stream_synchronize`` / ``thread_synchronize``),
   everything it observed happens-before every action it enqueues
   afterwards.

:class:`HBState` assigns every action a :class:`VectorClock` with one
component per stream (plus the host): the clock is the join of the
clocks of its dependence edges and of the host's clock at enqueue time,
ticked in the action's own stream component. Note the subtlety of the
relaxed FIFO semantic: two non-conflicting actions of the *same* stream
are genuinely unordered (they may execute and complete out of order),
so a stream's component counts admissions but a larger count does *not*
imply ordering over smaller ones. The clocks are therefore the
reporting/observability layer, while the authoritative happens-before
relation is the exact transitive closure of the recorded edges, kept as
per-action ancestor bitmasks (a dense equivalent of one clock component
per action): :meth:`HBState.happens_before` is sound *and* complete
with respect to the captured edges.

:class:`RaceDetector` consumes the same event feed: every pair of
actions in different streams with conflicting operand ranges on the
same buffer *instance* (same domain) where neither happens-before the
other is a ``stream-race`` diagnostic — the runtime is free to reorder
them, so the program's result depends on scheduling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import ActionRef, Diagnostic
from repro.core.capture import ActionEvent, SyncEvent
from repro.core.memory import instance_accesses

__all__ = ["HOST", "VectorClock", "HBState", "RaceDetector"]

#: Clock component of the source (host) thread.
HOST = -1


class VectorClock:
    """An immutable mapping from stream id (or :data:`HOST`) to count."""

    __slots__ = ("_c",)

    def __init__(self, comps: Optional[Dict[int, int]] = None):
        self._c: Dict[int, int] = dict(comps) if comps else {}

    def get(self, key: int) -> int:
        return self._c.get(key, 0)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Componentwise maximum."""
        if not other._c:
            return self
        if not self._c:
            return other
        merged = dict(self._c)
        for k, v in other._c.items():
            if v > merged.get(k, 0):
                merged[k] = v
        return VectorClock(merged)

    def tick(self, key: int, value: int) -> "VectorClock":
        """A copy with component ``key`` set to ``value``."""
        merged = dict(self._c)
        merged[key] = value
        return VectorClock(merged)

    def dominates(self, other: "VectorClock") -> bool:
        """True when every component is >= the other's."""
        return all(self.get(k) >= v for k, v in other._c.items())

    def as_dict(self) -> Dict[int, int]:
        return dict(self._c)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{'host' if k == HOST else f's{k}'}:{v}"
            for k, v in sorted(self._c.items())
        )
        return "{" + inner + "}"


class HBState:
    """Incremental happens-before over a captured (or live) event feed.

    Feed :class:`~repro.core.capture.ActionEvent` and
    :class:`~repro.core.capture.SyncEvent` objects in program order
    via :meth:`feed`; query with :meth:`happens_before` /
    :meth:`ordered` / :meth:`host_observed` at any point.
    """

    def __init__(self) -> None:
        self._bit: Dict[int, int] = {}  # action seq -> bitmask bit
        self._anc: Dict[int, int] = {}  # action seq -> ancestor closure
        self._clock: Dict[int, VectorClock] = {}
        self._nbits = 0
        self._host_anc = 0
        self._host_clock = VectorClock()
        self._host_ticks = 0
        self._stream_anc: Dict[int, int] = {}
        self._stream_clock: Dict[int, VectorClock] = {}
        self._stream_count: Dict[int, int] = {}
        self._all_anc = 0
        #: Seqs that appear as a dependence of some later action.
        self.has_dependent: set = set()

    # -- construction ----------------------------------------------------------

    def feed(self, event) -> None:
        """Incorporate one trace event (others are ignored)."""
        if isinstance(event, ActionEvent):
            self._feed_action(event)
        elif isinstance(event, SyncEvent):
            self._feed_sync(event)

    def _feed_action(self, ev: ActionEvent) -> None:
        action = ev.action
        seq = action.seq
        sid = action.stream.id if action.stream is not None else HOST
        bit = 1 << self._nbits
        self._nbits += 1
        # Enqueue happens after every host sync so far: the host's
        # observations order before this action.
        mask = bit | self._host_anc
        clock = self._host_clock
        for dep in ev.dep_seqs:
            dep_anc = self._anc.get(dep)
            if dep_anc is not None:
                mask |= dep_anc
                clock = clock.join(self._clock[dep])
                self.has_dependent.add(dep)
        idx = self._stream_count.get(sid, 0) + 1
        self._stream_count[sid] = idx
        clock = clock.tick(sid, idx)
        self._bit[seq] = bit
        self._anc[seq] = mask
        self._clock[seq] = clock
        self._stream_anc[sid] = self._stream_anc.get(sid, 0) | mask
        self._stream_clock[sid] = (
            self._stream_clock.get(sid, VectorClock()).join(clock)
        )
        self._all_anc |= mask

    def _feed_sync(self, ev: SyncEvent) -> None:
        if ev.kind == "event_wait":
            for seq in ev.seqs:
                anc = self._anc.get(seq)
                if anc is not None:
                    self._host_anc |= anc
                    self._host_clock = self._host_clock.join(self._clock[seq])
        elif ev.kind == "stream_synchronize":
            sid = ev.stream_id
            self._host_anc |= self._stream_anc.get(sid, 0)
            self._host_clock = self._host_clock.join(
                self._stream_clock.get(sid, VectorClock())
            )
        elif ev.kind == "thread_synchronize":
            self._host_anc |= self._all_anc
            for clock in self._stream_clock.values():
                self._host_clock = self._host_clock.join(clock)
        self._host_ticks += 1
        self._host_clock = self._host_clock.tick(HOST, self._host_ticks)

    # -- queries ---------------------------------------------------------------

    def knows(self, seq: int) -> bool:
        """Whether an action with this seq was fed."""
        return seq in self._bit

    def happens_before(self, a_seq: int, b_seq: int) -> bool:
        """True when action ``a`` is ordered before action ``b``."""
        bit = self._bit.get(a_seq)
        if bit is None or a_seq == b_seq:
            return False
        return bool(self._anc.get(b_seq, 0) & bit)

    def ordered(self, a_seq: int, b_seq: int) -> bool:
        """True when the two actions are ordered either way."""
        return self.happens_before(a_seq, b_seq) or self.happens_before(
            b_seq, a_seq
        )

    def host_observed(self, seq: int) -> bool:
        """Whether a host sync so far covers this action's completion."""
        return bool(self._host_anc & self._bit.get(seq, 0))

    def clock(self, seq: int) -> VectorClock:
        """The action's vector clock (empty if unknown)."""
        return self._clock.get(seq, VectorClock())


class _Access:
    """One recorded instance access, for race pairing."""

    __slots__ = ("seq", "stream_id", "offset", "end", "writes", "ref")

    def __init__(self, seq, stream_id, offset, end, writes, ref):
        self.seq = seq
        self.stream_id = stream_id
        self.offset = offset
        self.end = end
        self.writes = writes
        self.ref = ref


class RaceDetector:
    """Pairs conflicting unordered cross-stream accesses into
    ``stream-race`` diagnostics.

    History is pruned FastTrack-style: an access identical in (stream,
    range, mode) to an older one that happens-before it *supersedes*
    the older entry — any future race with the superseded access is
    also a race with its successor, so iterative pipelines keep the
    history bounded by (streams x distinct ranges), not program length.
    """

    def __init__(self, emit) -> None:
        #: ``emit(diagnostic, key)`` sink (deduplicates + counts).
        self._emit = emit
        # (buffer uid, domain) -> {(stream, off, end, writes): [_Access]}
        self._hist: Dict[Tuple[int, int], Dict[tuple, List[_Access]]] = {}

    def feed(self, event, hb: HBState) -> None:
        if not isinstance(event, ActionEvent):
            return
        action = event.action
        ref = ActionRef(
            label=action.display,
            seq=action.seq,
            stream=action.stream.name if action.stream else None,
            site=event.site,
        )
        for domain, op, _reads, writes in instance_accesses(action):
            if op.nbytes == 0:
                continue  # flagged separately as zero-length-operand
            acc = _Access(
                action.seq, action.stream.id, op.offset, op.end, writes, ref
            )
            buckets = self._hist.setdefault((op.buffer.uid, domain), {})
            self._check(acc, op, domain, buckets, hb)
            self._insert(acc, buckets, hb)

    def finish(self, hb: HBState) -> None:
        """Races are emitted incrementally; nothing to flush."""

    def _check(self, acc, op, domain, buckets, hb: HBState) -> None:
        for key, entries in buckets.items():
            _, o_off, o_end, o_writes = key
            if not (o_writes or acc.writes):
                continue  # read/read never races
            if not (o_off < acc.end and acc.offset < o_end):
                continue  # disjoint ranges
            for prior in entries:
                if prior.stream_id == acc.stream_id:
                    continue  # FIFO policy orders same-stream conflicts
                if hb.happens_before(prior.seq, acc.seq):
                    continue
                if prior.writes and acc.writes:
                    kind = "WAW"
                elif prior.writes:
                    kind = "RAW"
                else:
                    kind = "WAR"
                lo = max(o_off, acc.offset)
                hi = min(o_end, acc.end)
                diag = Diagnostic(
                    rule="stream-race",
                    message=(
                        f"{kind} race on buffer {op.buffer.name!r} bytes "
                        f"[{lo}, {hi}) in domain {domain}: "
                        f"{prior.ref.label!r} (stream {prior.ref.stream}, "
                        f"clock {hb.clock(prior.seq)}) and "
                        f"{acc.ref.label!r} (stream {acc.ref.stream}, "
                        f"clock {hb.clock(acc.seq)}) are unordered"
                    ),
                    actions=[prior.ref, acc.ref],
                    buffer=op.buffer.name,
                )
                self._emit(
                    diag,
                    key=(
                        "stream-race",
                        op.buffer.uid,
                        domain,
                        min(prior.stream_id, acc.stream_id),
                        max(prior.stream_id, acc.stream_id),
                        kind,
                    ),
                )

    def _insert(self, acc: _Access, buckets, hb: HBState) -> None:
        key = (acc.stream_id, acc.offset, acc.end, acc.writes)
        entries = buckets.setdefault(key, [])
        # Supersede entries ordered before the newcomer (sound: see
        # class docstring); keep genuinely concurrent ones.
        entries[:] = [e for e in entries if not hb.happens_before(e.seq, acc.seq)]
        entries.append(acc)
