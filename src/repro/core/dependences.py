"""Intra-stream dependence analysis: FIFO policies over a stream view.

The FIFO order of a stream plus the memory operands of its actions
*implicitly* specify the actual dependences (paper §II): a later action
depends on an earlier one iff their operand ranges conflict (overlap with
at least one writer). Everything else is free to execute and complete out
of order — the behaviour that distinguishes hStreams from CUDA Streams'
strict FIFO execution.

Which predecessors an action must wait for is a *policy* applied by the
scheduler, not a property of the window itself:

* :class:`RelaxedPolicy` — operand-conflict relaxation (hStreams);
* :class:`StrictFifoPolicy` — every action waits on its immediate
  predecessor (the CUDA-Streams comparator is built from streams using
  this policy, rather than being special-cased in the dependence scan).

:class:`StreamWindow` itself is a per-stream view over the action graph
that maintains a **conflict index**: live actions are bucketed by the
buffers their (cached) operand footprints touch, each bucket split into
a writer lane and a reader lane, with barrier actions in a dedicated
lane. The relaxed scan returns the *transitive reduction* of the
conflict relation rather than every conflicting pair: walking a bucket
newest-first it tracks the probed bytes not yet covered by a newer live
writer, keeps a predecessor only if it conflicts on still-uncovered
bytes, and stops when nothing is uncovered. Every skipped predecessor
was live and conflicting when the covering writer was admitted, so it is
already that writer's ancestor — the same argument as the barrier
cut-off, applied to data. The enqueue cost is O(last writers + readers
since), not O(conflicting predecessors), and the scheduler wires,
resolves and later decrements only those edges.

A window holds exactly the entries its owner has not retired, and no
scan ever looks at a completion event. The scheduler retires an entry
in the same lock hold that fires its completion (O(1) per completion),
so its windows hold only incomplete work — completed predecessors
impose no dependence (paper §II). A window nobody retires (the capture
recorders' full-history view, the perf harness) scans as if nothing
had completed.

The window also counts its work — :attr:`StreamWindow.scan_candidates`
(predecessors examined) and :attr:`StreamWindow.scan_comparisons`
(interval compares performed) — which are the deterministic counters the
perf harness (:mod:`repro.bench.perf`) gates CI regressions on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.actions import Action
from repro.core.sync import caller_locked, guarded_by

__all__ = [
    "DependencePolicy",
    "RelaxedPolicy",
    "StrictFifoPolicy",
    "StreamWindow",
]

#: One lane of the conflict index: buffer uid -> ``{seq: action}`` in
#: enqueue order. An action sits in a buffer's lane once, however many
#: of its footprint entries on that buffer share the lane's mode.
_Lane = Dict[int, Dict[int, Action]]


class DependencePolicy:
    """How a stream orders a new action against its in-flight history."""

    __slots__ = ()

    def deps_for(self, window: "StreamWindow", action: Action) -> List[Action]:
        """Earlier in-flight actions ``action`` must follow."""
        raise NotImplementedError


class RelaxedPolicy(DependencePolicy):
    """hStreams semantics: depend only on conflicting predecessors.

    The dependence set is :meth:`StreamWindow.conflict_scan`'s: the
    conflicting predecessors not already ordered before ``action``
    through a newer live writer of the same bytes or the newest live
    barrier.
    """

    __slots__ = ()

    def deps_for(self, window: "StreamWindow", action: Action) -> List[Action]:
        return window.conflict_scan(action)


class StrictFifoPolicy(DependencePolicy):
    """CUDA-Streams semantics: depend on the immediate predecessor.

    Ordering is transitive through the chain, so one edge per action
    reproduces full in-order execution.
    """

    __slots__ = ()

    def deps_for(self, window: "StreamWindow", action: Action) -> List[Action]:
        prev = window.newest_live()
        return [] if prev is None else [prev]


@guarded_by("_lock", "_live", "_writers", "_readers", "_barriers")
class StreamWindow:
    """Per-stream view over the in-flight actions of the shared graph.

    Maintains the conflict index: ``_writers`` and ``_readers`` bucket
    live non-barrier actions by the buffer uids their footprints write
    and read — two lanes, so a reading probe never examines other
    readers; ``_barriers`` is the dedicated barrier lane (barriers
    conflict with everything, so they never belong in a per-buffer
    bucket). ``_live`` keeps the full unretired set in enqueue order for
    the strict policy, barrier enqueues, and ``pending_completions``.

    Every entry stays live until its owner calls :meth:`retire`; the
    scheduler does so in the lock hold that fires each completion
    (``Scheduler._check_invariants_locked`` reports an entry that
    outlives its completion). The window itself never polls a
    completion event.

    Locking: under a scheduler, every mutation happens inside the
    scheduler lock (``_lock`` is wired to it when rtsan is enabled —
    the ``caller_locked`` contracts below are what the static and
    dynamic passes verify). Standalone windows (unit tests, benchmark
    harnesses) are single-threaded and carry ``_lock = None``.
    """

    __slots__ = (
        "policy",
        "_lock",
        "_live",
        "_writers",
        "_readers",
        "_barriers",
        "retired_count",
        "scan_candidates",
        "scan_comparisons",
    )

    def __init__(
        self,
        strict_fifo: bool = False,
        policy: Optional[DependencePolicy] = None,
    ):
        #: The owning scheduler's lock (wired by Scheduler.on_stream_create
        #: under rtsan); None for standalone/single-threaded windows.
        self._lock = None
        if policy is None:
            policy = StrictFifoPolicy() if strict_fifo else RelaxedPolicy()
        self.policy = policy
        #: In-flight actions by sequence number, in enqueue order.
        self._live: Dict[int, Action] = {}
        #: Conflict index, writer lane: actions writing each buffer.
        self._writers: _Lane = {}
        #: Conflict index, reader lane: actions only reading a range.
        self._readers: _Lane = {}
        #: Barrier lane: {seq: barrier action}, enqueue order.
        self._barriers: Dict[int, Action] = {}
        self.retired_count = 0
        #: Predecessors examined by dependence scans (deterministic).
        self.scan_candidates = 0
        #: Interval compares performed by dependence scans (deterministic).
        self.scan_comparisons = 0

    # -- maintenance ---------------------------------------------------------

    @caller_locked("_lock")
    def add(self, action: Action) -> None:
        """Record a newly enqueued action and index its footprint."""
        seq = action.seq
        self._live[seq] = action
        if action.barrier:
            self._barriers[seq] = action
        else:
            for uid, _start, _end, writes in action.footprint:
                lane = self._writers if writes else self._readers
                bucket = lane.get(uid)
                if bucket is None:
                    bucket = lane[uid] = {}
                bucket[seq] = action

    @caller_locked("_lock")
    def retire(self, action: Action) -> None:
        """Drop one completed action from the view and index (O(1))."""
        if self._live.pop(action.seq, None) is None:
            return
        self.retired_count += 1
        self._unindex(action)

    @caller_locked("_lock")
    def _unindex(self, action: Action) -> None:
        seq = action.seq
        if action.barrier:
            self._barriers.pop(seq, None)
            return
        for uid, _start, _end, writes in action.footprint:
            lane = self._writers if writes else self._readers
            bucket = lane.get(uid)
            if bucket is not None:
                bucket.pop(seq, None)
                if not bucket:
                    del lane[uid]

    @caller_locked("_lock")
    def newest_live(self) -> Optional[Action]:
        """The newest unretired action, or None — O(1)."""
        live = self._live
        return live[next(reversed(live))] if live else None

    # -- the conflict-indexed scan -------------------------------------------

    @caller_locked("_lock")
    def _newest_live_barrier(self) -> Optional[Action]:
        """The newest unretired barrier, or None — O(1)."""
        barriers = self._barriers
        return barriers[next(reversed(barriers))] if barriers else None

    @caller_locked("_lock")
    def conflict_scan(self, action: Action) -> List[Action]:
        """The live predecessors ``action`` must be wired after, in
        enqueue order.

        The paper's dependence relation is "every incomplete
        predecessor whose operands conflict". This returns the subset
        whose edges imply all the others. For each footprint interval
        the bucket is walked newest-first while tracking the interval's
        bytes not yet *covered* by a newer live writer: a predecessor is
        kept only if it conflicts on still-uncovered bytes, every kept
        writer subtracts its range, and the walk stops when nothing is
        uncovered (or at the newest live barrier, which is itself always
        a dependence). A skipped predecessor touches only bytes some
        kept, newer writer writes; it was live and conflicting when that
        writer was admitted, so it is one of the writer's ancestors and
        is ordered before ``action`` through it. Readiness, cancellation
        and poison propagation therefore see the same order as with the
        full conflict set. A reading interval walks the writer lane
        only; a writing interval merges both lanes by sequence number.
        """
        if action.barrier:
            # A barrier orders after everything live since the previous
            # barrier: its dependence set is inherently O(window).
            deps: List[Action] = []
            for prev in reversed(self._live.values()):
                self.scan_candidates += 1
                self.scan_comparisons += 1
                deps.append(prev)
                if prev.barrier:
                    break
            deps.reverse()
            return deps

        barrier = self._newest_live_barrier()
        barrier_seq = barrier.seq if barrier is not None else -1
        found: Dict[int, Action] = {}
        candidates = comparisons = 0
        for uid, start, end, writes in action.footprint:
            writers = self._writers.get(uid, ())
            w_iter = reversed(writers)
            w_seq = next(w_iter, -1)
            r_seq = -1
            if writes:
                readers = self._readers.get(uid, ())
                r_iter = reversed(readers)
                r_seq = next(r_iter, -1)
            uncovered = [(start, end)]
            while True:
                # Newest first across both lanes; -1 marks a drained lane
                # and never passes the barrier test.
                from_writers = w_seq >= r_seq
                if from_writers:
                    seq = w_seq
                    if seq <= barrier_seq:
                        break  # ordered transitively through the barrier
                    prev = writers[seq]
                    w_seq = next(w_iter, -1)
                else:
                    seq = r_seq
                    if seq <= barrier_seq:
                        break
                    r_seq = next(r_iter, -1)
                    if seq in found:
                        continue
                    prev = readers[seq]
                candidates += 1
                for p_uid, p_start, p_end, p_writes in prev.footprint:
                    if p_uid != uid or p_writes != from_writers:
                        continue
                    comparisons += 1
                    if from_writers:
                        rest = []
                        for lo, hi in uncovered:
                            if p_start < hi and lo < p_end:
                                found[seq] = prev
                                if lo < p_start:
                                    rest.append((lo, p_start))
                                if p_end < hi:
                                    rest.append((p_end, hi))
                            else:
                                rest.append((lo, hi))
                        uncovered = rest
                    else:
                        for lo, hi in uncovered:
                            if p_start < hi and lo < p_end:
                                found[seq] = prev
                                break
                if not uncovered:
                    break  # every older conflict is behind a kept writer
        self.scan_candidates += candidates
        self.scan_comparisons += comparisons
        if barrier is not None:
            found[barrier_seq] = barrier
        if not found:
            return []
        return [found[seq] for seq in sorted(found)]

    # -- queries -------------------------------------------------------------

    def deps_for(self, action: Action) -> List[Action]:
        """Earlier in-flight actions that ``action`` must follow, under
        this stream's FIFO policy."""
        return self.policy.deps_for(self, action)

    @property
    @caller_locked("_lock")
    def enqueued_count(self) -> int:
        """Actions ever added: the retired ones plus the live ones."""
        return self.retired_count + len(self._live)

    @property
    @caller_locked("_lock")
    def in_flight(self) -> int:
        """Number of unretired actions (O(1)); under a scheduler, the
        stream's in-flight work."""
        return len(self._live)

    @caller_locked("_lock")
    def pending_completions(self) -> List:
        """Completion events of the unretired actions, in enqueue order.

        Under a scheduler these are exactly the stream's incomplete
        actions; call through
        :meth:`~repro.core.scheduler.Scheduler.pending_completions`,
        which snapshots under the lock.
        """
        return [a.completion for a in self._live.values()]

    # -- deep checks (rtsan) --------------------------------------------------

    @caller_locked("_lock")
    def check_index(self, label: str = "window") -> List[str]:
        """Recompute the conflict index from ``_live`` and diff it.

        The invariant behind :meth:`conflict_scan`: the scan consults
        only the per-buffer lanes and the barrier lane, so it sees every
        live conflict iff each live non-barrier action sits in the
        writer lane of exactly the buffers it writes and the reader lane
        of exactly the buffers it reads, every lane entry is live, and
        the barrier lane is exactly the live barriers. Returns
        human-readable problems; empty means consistent.
        """
        problems: List[str] = []
        live_barriers = {s for s, a in self._live.items() if a.barrier}
        if set(self._barriers) != live_barriers:
            problems.append(
                f"{label}: barrier lane {sorted(self._barriers)} != live "
                f"barriers {sorted(live_barriers)}"
            )
        expected: Dict[Tuple[int, str], set] = {}
        for seq, action in self._live.items():
            if action.barrier:
                continue
            for uid, _start, _end, writes in action.footprint:
                lane = "writer" if writes else "reader"
                expected.setdefault((uid, lane), set()).add(seq)
        actual = {
            (uid, lane): set(bucket)
            for lane, buckets in (("writer", self._writers), ("reader", self._readers))
            for uid, bucket in buckets.items()
        }
        if actual != expected:
            for key in sorted(set(actual) | set(expected)):
                a, e = actual.get(key, set()), expected.get(key, set())
                if a != e:
                    problems.append(
                        f"{label}: buffer {key[0]} {key[1]} lane {sorted(a)} "
                        f"!= recomputed {sorted(e)}"
                    )
        return problems

