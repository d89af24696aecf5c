"""Tests for the intra-stream dependence window."""

from typing import List

import pytest

from repro.core.actions import Action, ActionKind, Operand, OperandMode
from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.dependences import StreamWindow


class FakeEvent:
    """Stands in for HEvent: manual completion flag."""

    def __init__(self):
        self._done = False

    def is_complete(self):
        return self._done

    def complete(self):
        self._done = True


def make_action(ops, barrier=False) -> Action:
    a = Action(
        kind=ActionKind.SYNC if barrier else ActionKind.COMPUTE,
        stream=None,
        operands=tuple(ops),
        barrier=barrier,
    )
    a.completion = FakeEvent()
    return a


@pytest.fixture()
def buf():
    return Buffer(ProxyAddressSpace(), nbytes=4096)


def rd(buf, off, n):
    return Operand(buf, off, n, OperandMode.IN)


def wr(buf, off, n):
    return Operand(buf, off, n, OperandMode.OUT)


class TestDependenceRelaxation:
    def test_disjoint_actions_have_no_deps(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 100)])
        w.add(a)
        b = make_action([wr(buf, 200, 100)])
        assert w.deps_for(b) == []

    def test_conflicting_action_depends_on_predecessor(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 100)])
        w.add(a)
        b = make_action([rd(buf, 50, 10)])
        assert w.deps_for(b) == [a]

    def test_read_read_is_free(self, buf):
        w = StreamWindow()
        a = make_action([rd(buf, 0, 100)])
        w.add(a)
        b = make_action([rd(buf, 0, 100)])
        assert w.deps_for(b) == []

    def test_completed_predecessors_impose_nothing(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 100)])
        w.add(a)
        w.retire(a)
        b = make_action([rd(buf, 0, 100)])
        assert w.deps_for(b) == []

    def test_multiple_conflicts_all_collected_in_order(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 100)])
        b = make_action([rd(buf, 0, 50)])
        c = make_action([rd(buf, 50, 50)])
        for x in (a, b, c):
            w.add(x)
        d = make_action([wr(buf, 0, 100)])
        assert w.deps_for(d) == [a, b, c]

    def test_barrier_cuts_off_older_history(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        w.add(old)
        bar = make_action([], barrier=True)
        w.add(bar)
        nxt = make_action([rd(buf, 0, 100)])
        # The barrier already orders `old`; only the barrier is a dep.
        assert w.deps_for(nxt) == [bar]

    def test_sync_with_operands_scopes_the_wait(self, buf):
        w = StreamWindow()
        scoped = make_action([wr(buf, 0, 64)])  # sync w/ operands acts like this
        w.add(scoped)
        unrelated = make_action([rd(buf, 1000, 64)])
        related = make_action([rd(buf, 0, 64)])
        assert w.deps_for(unrelated) == []
        assert w.deps_for(related) == [scoped]


class TestZeroLengthOperands:
    """Zero-length operands are dependence-inert under the relaxed
    policy (empty ranges never overlap, hence never conflict), while
    strict-FIFO streams still order every action by position. The
    hazard analyzer flags the pattern as ``zero-length-operand``."""

    def test_relaxed_policy_ignores_zero_length_operands(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 100)])
        w.add(a)
        probe = make_action([Operand(buf, 50, 0, OperandMode.INOUT)])
        assert w.deps_for(probe) == []

    def test_zero_length_predecessor_imposes_nothing(self, buf):
        w = StreamWindow()
        a = make_action([Operand(buf, 0, 0, OperandMode.OUT)])
        w.add(a)
        probe = make_action([wr(buf, 0, 100)])
        assert w.deps_for(probe) == []

    def test_zero_length_operands_never_overlap_or_conflict(self, buf):
        empty = Operand(buf, 50, 0, OperandMode.OUT)
        full = Operand(buf, 0, 100, OperandMode.OUT)
        assert not empty.overlaps(full)
        assert not full.overlaps(empty)
        assert not empty.conflicts_with(full)
        assert not empty.overlaps(empty)

    def test_strict_fifo_still_orders_zero_length_actions(self, buf):
        w = StreamWindow(strict_fifo=True)
        a = make_action([Operand(buf, 0, 0, OperandMode.OUT)])
        w.add(a)
        probe = make_action([Operand(buf, 50, 0, OperandMode.IN)])
        assert w.deps_for(probe) == [a]

    def test_barrier_still_orders_zero_length_actions(self, buf):
        # A barrier conflicts positionally, not through operand ranges.
        w = StreamWindow()
        bar = make_action([], barrier=True)
        w.add(bar)
        probe = make_action([Operand(buf, 0, 0, OperandMode.INOUT)])
        assert w.deps_for(probe) == [bar]


class TestStrictFifo:
    def test_strict_depends_on_immediate_predecessor_only(self, buf):
        w = StreamWindow(strict_fifo=True)
        a = make_action([wr(buf, 0, 8)])
        w.add(a)
        b = make_action([wr(buf, 2000, 8)])  # disjoint, still ordered
        assert w.deps_for(b) == [a]
        w.add(b)
        c = make_action([rd(buf, 100, 8)])
        assert w.deps_for(c) == [b]

    def test_strict_empty_stream_has_no_deps(self, buf):
        w = StreamWindow(strict_fifo=True)
        assert w.deps_for(make_action([wr(buf, 0, 8)])) == []

    def test_strict_skips_completed_tail(self, buf):
        w = StreamWindow(strict_fifo=True)
        a = make_action([wr(buf, 0, 8)])
        w.add(a)
        w.retire(a)
        b = make_action([wr(buf, 8, 8)])
        assert w.deps_for(b) == []


class TestRetirementEdges:
    """Scheduler-driven retirement: completions arrive in any order and
    the window's live view must stay exact through every interleaving."""

    def test_retire_out_of_order_keeps_remaining_deps(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        b = make_action([wr(buf, 8, 8)])
        c = make_action([wr(buf, 16, 8)])
        for x in (a, b, c):
            w.add(x)
        # The middle action completes first: a and c stay live.
        w.retire(b)
        probe = make_action([rd(buf, 0, 24)])
        assert w.deps_for(probe) == [a, c]
        assert w.in_flight == 2

    def test_retire_is_idempotent(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        w.add(a)
        w.retire(a)
        w.retire(a)
        assert w.retired_count == 1
        assert w.in_flight == 0

    def test_window_full_of_retired_entries_imposes_nothing(self, buf):
        w = StreamWindow()
        actions = [make_action([wr(buf, i * 8, 8)]) for i in range(5)]
        for x in actions:
            w.add(x)
        for x in actions:
            w.retire(x)
        probe = make_action([wr(buf, 0, 40)])
        assert w.deps_for(probe) == []
        assert w.in_flight == 0
        assert w.enqueued_count == 5
        assert w.retired_count == 5

    def test_strict_fifo_retire_out_of_order_falls_back_to_live_tail(self, buf):
        w = StreamWindow(strict_fifo=True)
        a = make_action([wr(buf, 0, 8)])
        b = make_action([wr(buf, 8, 8)])
        for x in (a, b):
            w.add(x)
        # The newest completes first; the chain's guarantee holds
        # because a strict stream's predecessor edges are transitive:
        # the next action orders after the newest *live* predecessor.
        w.retire(b)
        probe = make_action([wr(buf, 16, 8)])
        assert w.deps_for(probe) == [a]

    def test_barrier_interleaved_with_retirement(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        w.add(old)
        bar = make_action([], barrier=True)
        w.add(bar)
        # The barrier completes (and retires) while `old` is still in
        # flight: the cut-off is gone, so the probe must order after
        # the still-live conflicting predecessor directly.
        w.retire(bar)
        probe = make_action([rd(buf, 0, 100)])
        assert w.deps_for(probe) == [old]

    def test_retired_barrier_with_nothing_older_leaves_no_deps(self, buf):
        w = StreamWindow()
        bar = make_action([], barrier=True)
        w.add(bar)
        w.retire(bar)
        probe = make_action([rd(buf, 0, 8)])
        assert w.deps_for(probe) == []


class TestWindowBookkeeping:
    def test_in_flight_is_an_o1_counter(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        b = make_action([wr(buf, 8, 8)])
        w.add(a)
        w.add(b)
        assert w.in_flight == 2
        w.retire(a)
        assert w.in_flight == 1
        w.retire(b)
        assert w.in_flight == 0

    def test_enqueued_count_never_decreases(self, buf):
        w = StreamWindow()
        for i in range(5):
            a = make_action([wr(buf, i * 8, 8)])
            w.add(a)
            w.retire(a)
        assert w.enqueued_count == 5
        assert w.in_flight == 0

    def test_pending_completions(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        b = make_action([wr(buf, 8, 8)])
        w.add(a)
        w.add(b)
        w.retire(a)
        pend: List = w.pending_completions()
        assert pend == [b.completion]

    def test_pending_completions_is_non_mutating(self, buf):
        # The window never looks at a completion: an entry whose event
        # fired stays live, and reported, until its owner retires it.
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        b = make_action([wr(buf, 8, 8)])
        w.add(a)
        w.add(b)
        a.completion.complete()
        assert w.pending_completions() == [a.completion, b.completion]
        assert w.in_flight == 2
        assert w.retired_count == 0
        assert w.pending_completions() == [a.completion, b.completion]


class TestConflictIndex:
    """The per-buffer conflict index behind RelaxedPolicy."""

    def test_dedup_across_shared_buffers(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=256)
        b2 = Buffer(space, nbytes=256)
        w = StreamWindow()
        both = make_action([wr(b1, 0, 64), wr(b2, 0, 64)])
        w.add(both)
        probe = make_action([rd(b1, 0, 64), rd(b2, 0, 64)])
        # Conflicts via two buckets, appears once, in enqueue order.
        assert w.deps_for(probe) == [both]

    def test_scan_cost_is_per_buffer_not_per_window(self):
        space = ProxyAddressSpace()
        bufs = [Buffer(space, nbytes=64) for _ in range(50)]
        w = StreamWindow()
        for b in bufs:
            w.add(make_action([wr(b, 0, 64)]))
        before = w.scan_candidates
        probe = make_action([rd(bufs[0], 0, 64)])
        assert w.deps_for(probe) == [w._live[min(w._live)]]
        # Only the one bucket was examined, not all 50 live actions.
        assert w.scan_candidates - before == 1

    def test_naive_policy_scans_whole_window(self):
        from tests.oracle import NaiveRelaxedPolicy

        space = ProxyAddressSpace()
        bufs = [Buffer(space, nbytes=64) for _ in range(50)]
        w = StreamWindow(policy=NaiveRelaxedPolicy())
        for b in bufs:
            w.add(make_action([wr(b, 0, 64)]))
        before = w.scan_candidates
        probe = make_action([rd(bufs[0], 0, 64)])
        deps = w.deps_for(probe)
        assert len(deps) == 1
        assert w.scan_candidates - before == 50

    def test_bucket_cleanup_on_retire(self, buf):
        w = StreamWindow()
        a = make_action([wr(buf, 0, 8)])
        w.add(a)
        assert w._writers
        w.retire(a)
        assert not w._writers and not w._readers

    def test_barrier_lane_cleanup(self, buf):
        w = StreamWindow()
        bar = make_action([], barrier=True)
        w.add(bar)
        assert bar.seq in w._barriers
        w.retire(bar)
        assert not w._barriers

    def test_footprint_cached_once(self, buf):
        a = make_action([wr(buf, 0, 8), rd(buf, 16, 8)])
        assert a.footprint == (
            (buf.uid, 0, 8, True),
            (buf.uid, 16, 24, False),
        )

    def test_zero_length_operand_excluded_from_footprint(self, buf):
        a = make_action([Operand(buf, 0, 0, OperandMode.OUT), wr(buf, 8, 8)])
        assert a.footprint == ((buf.uid, 8, 16, True),)


class TestDependencePropertyFuzz:
    """Property: deps_for returns a subset of the incomplete,
    conflicting predecessors (cut at the newest conflicting barrier)
    from which all the others are reachable through recorded edges."""

    def _oracle(self, history, live, action):
        deps = []
        for i in reversed(live):
            prev = history[i]
            if prev.conflicts_with(action):
                deps.append(prev)
                if prev.barrier:
                    break
        deps.reverse()
        return deps

    def test_random_histories_match_oracle(self, buf):
        import numpy as np

        from tests.oracle import assert_reduction, completable

        rng = np.random.default_rng(7)
        for _trial in range(30):
            w = StreamWindow()
            history = []
            edges = {}
            live = []

            def check(key, action):
                reduced = w.deps_for(action)
                assert reduced == sorted(reduced, key=lambda a: a.seq)
                assert_reduction(
                    key,
                    [history.index(d) for d in reduced],
                    [history.index(d)
                     for d in self._oracle(history, live, action)],
                    edges,
                    set(live),
                )

            for _ in range(int(rng.integers(1, 20))):
                if rng.random() < 0.1:
                    a = make_action([], barrier=True)
                else:
                    off = int(rng.integers(0, 3500))
                    ln = int(rng.integers(1, 500))
                    mode = (OperandMode.IN if rng.random() < 0.5
                            else OperandMode.OUT)
                    a = make_action([Operand(buf, off, ln, mode)])
                if rng.random() < 0.4 and live:
                    # Completions respect the recorded edges, as under
                    # a scheduler: only an action with no live producer.
                    ready = completable(live, edges)
                    done = ready[int(rng.integers(0, len(ready)))]
                    w.retire(history[done])
                    live.remove(done)
                probe_off = int(rng.integers(0, 3500))
                probe = make_action(
                    [Operand(buf, probe_off, int(rng.integers(1, 500)),
                             OperandMode.INOUT)]
                )
                check("probe", probe)
                check(len(history), a)
                w.add(a)
                live.append(len(history))
                history.append(a)


class CountingEvent(FakeEvent):
    """FakeEvent that counts how often a scan polls it."""

    polls = 0

    def is_complete(self):
        CountingEvent.polls += 1
        return self._done


class TestCoveringWriterCutoff:
    """The relaxed scan wires the transitive reduction: a predecessor
    behind a newer live writer of the same bytes is that writer's
    ancestor already, so it is neither examined nor returned."""

    def _scan(self, w, probe):
        before = w.scan_candidates
        deps = w.deps_for(probe)
        return deps, w.scan_candidates - before

    def test_full_cover_writer_stops_the_walk(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        reader = make_action([rd(buf, 0, 100)])
        new = make_action([wr(buf, 0, 100)])
        for x in (old, reader, new):
            w.add(x)
        # Read probe: the newest writer covers everything.
        assert self._scan(w, make_action([rd(buf, 10, 50)])) == ([new], 1)
        # Write probe: same, the older reader is behind `new` too.
        assert self._scan(w, make_action([wr(buf, 0, 100)])) == ([new], 1)

    def test_readers_since_the_last_writer_are_kept(self, buf):
        w = StreamWindow()
        writer = make_action([wr(buf, 0, 100)])
        r1 = make_action([rd(buf, 0, 50)])
        r2 = make_action([rd(buf, 50, 50)])
        for x in (writer, r1, r2):
            w.add(x)
        deps, examined = self._scan(w, make_action([wr(buf, 0, 100)]))
        assert deps == [writer, r1, r2]
        assert examined == 3

    def test_halo_style_partial_covers(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        mid_reader = make_action([rd(buf, 40, 20)])
        lo = make_action([wr(buf, 0, 30)])
        hi = make_action([wr(buf, 70, 30)])
        for x in (old, mid_reader, lo, hi):
            w.add(x)
        # [30, 70) is still uncovered: the walk reaches `old` for it.
        assert w.deps_for(make_action([rd(buf, 0, 100)])) == [old, lo, hi]
        # A probe inside one halo needs only that halo's writer.
        assert self._scan(w, make_action([rd(buf, 75, 10)])) == ([hi], 1)
        # A writer of the gap orders after the reader still in it.
        assert w.deps_for(make_action([wr(buf, 30, 40)])) == [old, mid_reader]
        mid = make_action([wr(buf, 30, 40)])
        w.add(mid)
        # Now three writers tile the range: `old` and the reader are
        # behind them and no longer examined.
        deps, examined = self._scan(w, make_action([wr(buf, 0, 100)]))
        assert deps == [lo, hi, mid]
        assert examined == 3

    def test_partial_cover_keeps_the_uncovered_remainder(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        new = make_action([wr(buf, 0, 60)])
        w.add(old)
        w.add(new)
        assert w.deps_for(make_action([rd(buf, 0, 60)])) == [new]
        assert w.deps_for(make_action([rd(buf, 50, 50)])) == [old, new]
        assert w.deps_for(make_action([rd(buf, 60, 40)])) == [old]

    def test_retired_writer_covers_nothing(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        new = make_action([wr(buf, 0, 100)])
        w.add(old)
        w.add(new)
        # Out of dependence order on purpose: `new` is retired, `old` is
        # not. A retired writer orders nothing, so `old` must be found.
        w.retire(new)
        assert w.deps_for(make_action([rd(buf, 0, 100)])) == [old]
        assert w.in_flight == 1

    def test_reader_never_examines_other_readers(self, buf):
        w = StreamWindow()
        readers = [make_action([rd(buf, 0, 64)]) for _ in range(1000)]
        for r in readers:
            w.add(r)
        assert self._scan(w, make_action([rd(buf, 0, 64)])) == ([], 0)
        # A writer is ordered after every one of them: N edges.
        deps, examined = self._scan(w, make_action([wr(buf, 0, 64)]))
        assert deps == readers
        assert examined == 1000

    def test_same_action_reading_and_writing_one_buffer(self, buf):
        w = StreamWindow()
        both = make_action([rd(buf, 0, 100), wr(buf, 40, 20)])
        w.add(both)
        # Found through the reader lane, still covers through the
        # writer lane: the older writer of [40, 60) would hide behind it.
        older = make_action([wr(buf, 40, 20)])
        w2 = StreamWindow()
        w2.add(older)
        w2.add(both)
        assert w.deps_for(make_action([wr(buf, 0, 100)])) == [both]
        assert w2.deps_for(make_action([wr(buf, 40, 20)])) == [both]

    def test_cover_is_per_probe_interval(self, buf):
        other = Buffer(ProxyAddressSpace(), nbytes=4096)
        w = StreamWindow()
        a = make_action([wr(buf, 0, 64)])
        b = make_action([wr(other, 0, 64)])
        c = make_action([wr(buf, 0, 64)])
        for x in (a, b, c):
            w.add(x)
        # `c` hides `a` on buf; nothing hides `b` on the other buffer.
        probe = make_action([rd(buf, 0, 64), rd(other, 0, 64)])
        assert w.deps_for(probe) == [b, c]

    def test_barrier_still_cuts_off_before_coverage_does(self, buf):
        w = StreamWindow()
        old = make_action([wr(buf, 0, 100)])
        bar = make_action([], barrier=True)
        part = make_action([wr(buf, 0, 50)])
        for x in (old, bar, part):
            w.add(x)
        assert w.deps_for(make_action([rd(buf, 0, 100)])) == [bar, part]


class TestStrictFifoNewestLive:
    """StrictFifoPolicy takes one element of the live set: O(1), not a
    copy of the window."""

    DEPTH = 5000

    def _deep_window(self, buf):
        w = StreamWindow(strict_fifo=True)
        actions = []
        for i in range(self.DEPTH):
            a = make_action([wr(buf, 0, 8)])
            a.completion = CountingEvent()
            w.add(a)
            actions.append(a)
        return w, actions

    def test_enqueue_at_depth_polls_nothing_and_copies_nothing(self, buf):
        import tracemalloc

        w, actions = self._deep_window(buf)
        probe = make_action([wr(buf, 0, 8)])
        CountingEvent.polls = 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            deps = w.deps_for(probe)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert deps == [actions[-1]]
        assert CountingEvent.polls == 0
        # A copy of the 5000-entry live set is ~40 KB of pointers.
        assert peak < 2048
