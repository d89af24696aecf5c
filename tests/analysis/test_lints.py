"""Unit tests for the lint passes and their IntervalSet workhorse."""

from repro import HStreams, OperandMode, XferDirection, make_platform
from repro.analysis import IntervalSet, RuleEngine
from repro.core.actions import Action, ActionKind, Operand
from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.capture import ActionEvent


class TestIntervalSet:
    def test_empty_set_is_falsy(self):
        assert not IntervalSet()

    def test_add_merges_overlapping_and_touching_ranges(self):
        iv = IntervalSet()
        iv.add(0, 10)
        iv.add(20, 30)
        iv.add(10, 20)  # touches both: everything fuses
        assert iv.spans() == [(0, 30)]

    def test_add_keeps_disjoint_ranges_sorted(self):
        iv = IntervalSet()
        iv.add(50, 60)
        iv.add(0, 10)
        assert iv.spans() == [(0, 10), (50, 60)]

    def test_zero_width_add_is_a_no_op(self):
        iv = IntervalSet()
        iv.add(5, 5)
        assert iv.spans() == []

    def test_subtract_splits_an_interval(self):
        iv = IntervalSet()
        iv.add(0, 100)
        iv.subtract(40, 60)
        assert iv.spans() == [(0, 40), (60, 100)]

    def test_subtract_trims_edges(self):
        iv = IntervalSet()
        iv.add(0, 100)
        iv.subtract(0, 10)
        iv.subtract(90, 100)
        assert iv.spans() == [(10, 90)]

    def test_covers_requires_full_containment(self):
        iv = IntervalSet()
        iv.add(0, 50)
        assert iv.covers(0, 50)
        assert iv.covers(10, 20)
        assert not iv.covers(40, 60)
        assert iv.covers(7, 7)  # empty range is vacuously covered

    def test_intersects_on_any_shared_byte(self):
        iv = IntervalSet()
        iv.add(10, 20)
        assert iv.intersects(19, 30)
        assert not iv.intersects(20, 30)  # half-open: no shared byte

    def test_clear_returns_the_removed_content(self):
        iv = IntervalSet()
        iv.add(0, 10)
        old = iv.clear()
        assert old.spans() == [(0, 10)]
        assert iv.spans() == []


def run_capture(build):
    """Capture ``build(hs)`` and return the analyzed diagnostics."""
    hs = HStreams(
        platform=make_platform("HSW", 1), backend="sim", capture_only=True
    )
    hs.register_kernel("k", fn=lambda *a: None)
    build(hs)
    engine = RuleEngine()
    for event in hs.capture.trace:
        engine.feed(event)
    return engine.finish()


def rules_of(diags):
    return {d.rule for d in diags}


class TestBufferStateLint:
    def test_use_after_destroy(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="gone")
            hs.enqueue_xfer(s, b)
            hs.thread_synchronize()
            hs.buffer_destroy(b)
            hs.enqueue_compute(s, "k", args=(Operand(b, 0, 64),))
            hs.thread_synchronize()

        diags = run_capture(build)
        assert "use-after-destroy" in rules_of(diags)
        (d,) = [d for d in diags if d.rule == "use-after-destroy"]
        assert "gone" in d.message

    def test_evict_in_flight_warns_without_host_sync(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="busy")
            hs.enqueue_xfer(s, b)
            # No synchronization: on a real platform this evict races
            # the transfer (HStreamsBusy); under capture it is a lint.
            hs.buffer_evict(b, 1)
            hs.thread_synchronize()

        diags = run_capture(build)
        assert "evict-in-flight" in rules_of(diags)

    def test_synced_evict_is_clean(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="done")
            hs.enqueue_xfer(s, b)
            hs.stream_synchronize(s)
            hs.buffer_evict(b, 1)

        diags = run_capture(build)
        assert diags == []

    def test_retransfer_after_evict_clears_the_hazard(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="cycled")
            hs.enqueue_xfer(s, b)
            hs.stream_synchronize(s)
            hs.buffer_evict(b, 1)
            hs.enqueue_xfer(s, b)  # re-transfer: data is back
            hs.enqueue_compute(s, "k", args=(b.tensor((8,), mode=OperandMode.IN),))
            hs.thread_synchronize()

        diags = run_capture(build)
        assert diags == []

    def test_partial_write_leaves_rest_uninitialized(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="half")
            hs.enqueue_xfer(s, b.range(0, 32, OperandMode.OUT))
            hs.enqueue_compute(s, "k", args=(Operand(b, 0, 64, OperandMode.IN),))
            hs.thread_synchronize()

        diags = run_capture(build)
        assert "read-before-init" in rules_of(diags)

    def test_d2h_clears_missing_d2h(self):
        import numpy as np

        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.wrap(np.ones(8), name="roundtrip")
            hs.enqueue_xfer(s, b)
            hs.enqueue_compute(s, "k", args=(b.tensor((8,)),))
            hs.enqueue_xfer(s, b, XferDirection.SINK_TO_SRC)
            hs.thread_synchronize()

        diags = run_capture(build)
        assert diags == []

    def test_inout_operand_does_not_initialize_itself(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="selfread")
            # INOUT reads before its own write lands: still a hazard.
            hs.enqueue_compute(s, "k", args=(b.tensor((8,)),))
            hs.thread_synchronize()

        diags = run_capture(build)
        assert "read-before-init" in rules_of(diags)


class TestUnwaitedEventLint:
    def test_only_the_chain_tail_is_reported(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64)
            hs.enqueue_xfer(s, b)  # has a dependent: not reported
            hs.enqueue_compute(s, "k", args=(b.tensor((8,)),))  # the tail

        diags = run_capture(build)
        (d,) = diags
        assert d.rule == "unwaited-event"
        assert d.occurrences == 1
        assert len(d.actions) == 1

    def test_folds_per_stream(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            bufs = [hs.buffer_create(nbytes=64) for _ in range(6)]
            for b in bufs:  # six independent unobserved actions
                hs.enqueue_xfer(s, b)

        diags = run_capture(build)
        (d,) = diags
        assert d.rule == "unwaited-event"
        assert d.occurrences == 6
        assert len(d.actions) == 4  # refs are capped, count is not


class TestDeadlockLint:
    def test_cycle_back_edge_in_hand_built_trace(self):
        # The public API cannot express a true cycle (enqueue order is
        # a topological order), so the defensive branch is exercised
        # with a hand-built event whose dep points forward.
        space = ProxyAddressSpace()
        buf = Buffer(space, nbytes=64, name="b")
        action = Action(
            kind=ActionKind.COMPUTE,
            stream=None,
            operands=(Operand(buf, 0, 64),),
            kernel="k",
        )
        engine = RuleEngine()
        engine.feed(
            ActionEvent(
                pos=1,
                action=action,
                dep_seqs=(action.seq,),  # waits on itself
            )
        )
        diags = engine.finish()
        assert "deadlock" in rules_of(diags)
        assert any("cycle" in d.message for d in diags)


class TestZeroLengthOperandLint:
    def test_dedup_is_per_site(self):
        def build(hs):
            s = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="z")
            hs.enqueue_xfer(s, b)
            for _ in range(3):  # same source line: one diagnostic
                hs.enqueue_compute(
                    s,
                    "k",
                    args=(b.tensor((8,)),),
                    operands=(b.range(0, 0, OperandMode.IN),),
                )
            hs.thread_synchronize()

        diags = run_capture(build)
        zl = [d for d in diags if d.rule == "zero-length-operand"]
        assert len(zl) == 1
        assert zl[0].occurrences == 3


class TestEngineOrdering:
    def test_errors_sort_before_warnings(self):
        def build(hs):
            s1 = hs.stream_create(domain=1, ncores=30)
            s2 = hs.stream_create(domain=1, ncores=30)
            b = hs.buffer_create(nbytes=64, name="t")
            hs.enqueue_xfer(s1, b)
            # race (error) ...
            hs.enqueue_compute(s2, "k", args=(b.tensor((8,), mode=OperandMode.IN),))
            # ... and a zero-length operand (warning)
            hs.enqueue_compute(
                s1, "k",
                args=(b.tensor((8,)),),
                operands=(b.range(0, 0, OperandMode.IN),),
            )
            hs.thread_synchronize()

        diags = run_capture(build)
        severities = [d.severity.value for d in diags]
        assert severities == sorted(severities, key=["error", "warning"].index)
        assert diags[0].rule == "stream-race"
