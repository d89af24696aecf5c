"""Tests for graph capture and replay: template recording, admission
through the precomputed-dependence pipeline, buffer rebinding, and the
interactions with elision, faults, and failure policies."""

import threading
import time

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    HStreams,
    InjectedFault,
    OperandMode,
    XferDirection,
    inject_faults,
    make_platform,
)
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsInvalid,
    HStreamsNotFound,
)
from repro.sim.kernels import dgemm


def thread_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="thread", **kw)


def sim_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="sim", **kw)


def scale_runtime(backend="thread", **kw):
    hs = thread_runtime(**kw) if backend == "thread" else sim_runtime(**kw)
    hs.register_kernel(
        "scale",
        fn=lambda x, f: np.multiply(x, f, out=x),
        cost_fn=lambda *a: dgemm(64, 64, 64),
    )
    return hs


def capture_pipeline(hs, s, buf, n=8):
    """Capture the canonical h2d -> compute -> d2h cell."""
    with hs.capture_graph() as g:
        hs.enqueue_xfer(s, buf)
        hs.enqueue_compute(s, "scale", args=(buf.tensor((n,)), 2.0))
        hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
    hs.thread_synchronize()
    return g


class TestCaptureTemplate:
    def test_warm_capture_executes_and_records(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        g = capture_pipeline(hs, s, buf)
        # Warm: the captured iteration really ran.
        assert (data == np.arange(8.0) * 2).all()
        assert len(g) == 3
        assert g.finalized
        # Chain edges: compute after h2d, d2h after the compute (which
        # rewrote the whole buffer, so the h2d is behind it already).
        assert g.dep_indices == [(), (0,), (1,)]
        assert g.external_deps == 0
        assert [s_.id for s_ in g.streams] == [s.id]
        hs.fini()

    def test_template_trace_validates_clean(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        assert g.validate() == []
        hs.fini()

    def test_pre_capture_work_becomes_external_dep(self):
        # Sim backend: nothing completes until a sync, so the
        # pre-capture transfer is deterministically still in flight
        # when the captured compute's window scan finds it.
        hs = scale_runtime("sim")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_xfer(s, buf)  # outside the scope
        with hs.capture_graph() as g:
            hs.enqueue_compute(s, "scale", args=(buf.tensor((8,)), 2.0))
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()
        # Both captured actions conflict with the still-live transfer,
        # but the d2h reaches it through the captured compute (the
        # newer writer of the same bytes): one external edge is wired.
        assert g.external_deps == 1
        assert g.dep_indices[0] == ()  # the dropped edge was external
        assert g.dep_indices[1] == (0,)  # internal edge survives
        hs.replay(g)
        hs.thread_synchronize()
        assert hs.metrics()["actions"]["completed"] == 5
        hs.fini()

    def test_replay_counts_stats_by_kind(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        before = dict(hs.stats)
        hs.replay(g)
        hs.thread_synchronize()
        assert hs.stats["computes"] == before["computes"] + 1
        assert hs.stats["transfers"] == before["transfers"] + 2
        assert hs.stats["syncs"] == before["syncs"]
        assert (
            hs.stats["bytes_transferred"]
            == before["bytes_transferred"] + 2 * buf.nbytes
        )
        hs.fini()


class TestCaptureGuards:
    def test_capture_scopes_do_not_nest(self):
        hs = scale_runtime()
        with hs.capture_graph():
            with pytest.raises(HStreamsInvalid, match="nest"):
                with hs.capture_graph():
                    pass
        hs.fini()

    def test_host_sync_inside_capture_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        with pytest.raises(HStreamsInvalid, match="thread_synchronize"):
            with hs.capture_graph():
                hs.enqueue_xfer(s, buf)
                hs.thread_synchronize()
        hs.thread_synchronize()
        hs.fini()

    def test_stream_synchronize_inside_capture_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        with pytest.raises(HStreamsInvalid, match="stream_synchronize"):
            with hs.capture_graph():
                hs.stream_synchronize(s)
        hs.fini()

    def test_buffer_lifecycle_inside_capture_rejected(self):
        hs = scale_runtime()
        with pytest.raises(HStreamsInvalid, match="buffer"):
            with hs.capture_graph():
                hs.buffer_create(nbytes=64)
        hs.fini()

    def test_stream_create_inside_capture_rejected(self):
        hs = scale_runtime()
        with pytest.raises(HStreamsInvalid, match="stream"):
            with hs.capture_graph():
                hs.stream_create(domain=1, ncores=4)
        hs.fini()

    def test_aborted_capture_leaves_template_unfinalized(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        with pytest.raises(ValueError):
            with hs.capture_graph() as g:
                hs.enqueue_xfer(s, buf)
                raise ValueError("user bug")
        hs.thread_synchronize()
        assert not g.finalized
        with pytest.raises(HStreamsInvalid, match="finalized"):
            hs.replay(g)
        # The runtime recovered: a fresh scope works.
        g2 = capture_pipeline(hs, s, buf)
        assert g2.finalized
        hs.fini()

    def test_replay_inside_capture_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        with pytest.raises(HStreamsInvalid, match="inside capture_graph"):
            with hs.capture_graph():
                hs.replay(g)
        hs.fini()


class TestReplay:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_replay_matches_reenqueue_counts(self, backend):
        hs = scale_runtime(backend)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        for _ in range(3):
            hs.replay(g)
            hs.thread_synchronize()
        m = hs.metrics()
        # 3 capture-run actions + 9 replayed, all complete.
        assert m["actions"]["enqueued"] == 12
        assert m["actions"]["completed"] == 12
        assert m["actions"]["failed"] == 0
        hs.fini()

    def test_replay_numerics_match_reenqueue(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        g = capture_pipeline(hs, s, buf)
        for _ in range(3):
            hs.replay(g)
            hs.thread_synchronize()
        replayed = data.copy()
        # Same program via plain re-enqueue on a fresh runtime.
        hs2 = scale_runtime()
        s2 = hs2.stream_create(domain=1, ncores=4)
        data2 = np.arange(8.0)
        buf2 = hs2.wrap(data2)
        for _ in range(4):
            hs2.enqueue_xfer(s2, buf2)
            hs2.enqueue_compute(s2, "scale", args=(buf2.tensor((8,)), 2.0))
            hs2.enqueue_xfer(s2, buf2, XferDirection.SINK_TO_SRC)
            hs2.thread_synchronize()
        assert (replayed == data2).all()
        hs.fini()
        hs2.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_replay_runs_no_dependence_scan(self, backend):
        hs = scale_runtime(backend)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        before = hs.metrics()["streams"][s.id]["dep_scan_comparisons"]
        for _ in range(5):
            hs.replay(g)
            hs.thread_synchronize()
        after = hs.metrics()["streams"][s.id]["dep_scan_comparisons"]
        assert after == before
        hs.fini()

    def test_replay_events_are_waitable(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        inst = hs.replay(g)
        assert len(inst.events) == 3
        hs.event_wait(inst.events)
        assert all(ev.is_complete() for ev in inst.events)
        hs.fini()

    def test_cross_stream_template(self):
        hs = scale_runtime()
        s1 = hs.stream_create(domain=1, ncores=2)
        s2 = hs.stream_create(domain=1, ncores=2)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        with hs.capture_graph() as g:
            ev = hs.enqueue_xfer(s1, buf)
            hs.event_stream_wait(s2, [ev], operands=[buf])
            hs.enqueue_compute(s2, "scale", args=(buf.tensor((8,)), 2.0))
            hs.enqueue_xfer(s2, buf, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()
        assert (data == np.arange(8.0) * 2).all()
        # The explicit wait became a template-internal edge.
        assert g.dep_indices[1] == (0,)
        hs.replay(g)
        hs.thread_synchronize()
        assert (data == np.arange(8.0) * 4).all()
        hs.fini()

    def test_replay_on_capture_only_runtime(self):
        hs = HStreams(
            platform=make_platform("HSW", 1), backend="thread", capture_only=True
        )
        hs.register_kernel("scale", fn=lambda x, f: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        with hs.capture_graph() as g:
            hs.enqueue_xfer(s, buf)
            hs.enqueue_compute(s, "scale", args=(buf.all_inout(), 2.0))
        hs.thread_synchronize()
        before = hs.stats["computes"]
        hs.replay(g)
        hs.thread_synchronize()
        assert hs.stats["computes"] == before + 1
        # The whole-program recorder saw the replayed admissions too.
        seqs = [e.action.seq for e in hs.capture.trace.actions()]
        assert len(seqs) == len(set(seqs)) == 4
        hs.fini()

    def test_per_replay_transfer_elision(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        # Read-only pipeline: the h2d moves bytes once; on replay the
        # sink copy is still valid, so the memory manager elides it —
        # a *fresh* decision per replay, not the captured one.
        hs.register_kernel("touch", fn=lambda x: None)
        with hs.capture_graph() as g:
            hs.enqueue_xfer(s, buf)
            hs.enqueue_compute(
                s, "touch", args=(buf.tensor((8,), mode=OperandMode.IN),)
            )
        hs.thread_synchronize()
        elided_before = hs.metrics()["memory"]["elided_transfers"]
        assert not g.protos[0].elided  # warm run really transferred
        inst = hs.replay(g)
        hs.thread_synchronize()
        assert hs.metrics()["memory"]["elided_transfers"] == elided_before + 1
        assert inst.actions[0].elided
        hs.fini()


class TestInstantiate:
    def test_bindings_remap_operands(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        g = capture_pipeline(hs, s, buf)
        data2 = np.arange(8.0) + 100
        buf2 = hs.wrap(data2)
        hs.replay(g, bindings={buf: buf2})
        hs.thread_synchronize()
        assert (data2 == (np.arange(8.0) + 100) * 2).all()
        assert (data == np.arange(8.0) * 2).all()  # original untouched
        hs.fini()

    def test_binding_size_mismatch_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        small = hs.wrap(np.arange(4.0))
        with pytest.raises(HStreamsBadArgument, match="sizes must match"):
            g.instantiate({buf: small})
        hs.fini()

    def test_binding_write_to_read_only_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        ro = hs.buffer_create(nbytes=buf.nbytes, read_only=True)
        with pytest.raises(HStreamsBadArgument, match="read-only"):
            g.instantiate({buf: ro})
        hs.fini()

    def test_instance_is_single_use(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        inst = hs.replay(g)
        hs.thread_synchronize()
        with pytest.raises(HStreamsInvalid, match="single-use"):
            hs.replay(inst)
        hs.fini()

    def test_bindings_with_instance_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        inst = g.instantiate()
        with pytest.raises(HStreamsBadArgument, match="instantiation"):
            hs.replay(inst, bindings={buf: buf})
        hs.fini()


class TestReplayPreflight:
    def test_replay_into_busy_stream_rejected(self):
        hs = scale_runtime()
        gate = threading.Event()
        hs.register_kernel("block", fn=lambda x: gate.wait(5.0))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        hs.enqueue_compute(s, "block", args=(buf.tensor((8,)),))
        try:
            with pytest.raises(HStreamsInvalid, match="busy stream"):
                hs.replay(g)
        finally:
            gate.set()
        hs.thread_synchronize()
        hs.replay(g)  # quiescent now
        hs.thread_synchronize()
        hs.fini()

    def test_replay_after_stream_destroy_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        hs.stream_destroy(s)
        with pytest.raises(HStreamsNotFound, match="destroyed"):
            hs.replay(g)
        hs.fini()

    def test_cross_runtime_replay_rejected(self):
        hs = scale_runtime()
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        other = scale_runtime()
        with pytest.raises(HStreamsInvalid, match="different runtime"):
            other.replay(g)
        hs.fini()
        other.fini()

    def test_replay_takes_only_graph_types(self):
        hs = scale_runtime()
        with pytest.raises(HStreamsBadArgument, match="GraphTemplate"):
            hs.replay(object())
        hs.fini()


class TestReplayFailures:
    def test_replay_after_failure_poisons_on_conflict(self):
        hs = scale_runtime(failure_policy="poison")
        hs.register_kernel("boom", fn=lambda x: 1 / 0)
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        g = capture_pipeline(hs, s, buf)
        hs.enqueue_compute(s, "boom", args=(buf.tensor((8,)),))
        with pytest.raises(ZeroDivisionError):
            hs.thread_synchronize()
        # The failed producer left a tombstone; replayed work touching
        # the same bytes is poisoned exactly like re-enqueued work.
        inst = hs.replay(g)
        with pytest.raises(ZeroDivisionError):
            hs.thread_synchronize()
        assert all(ev.record.state == "cancelled" for ev in inst.events)
        hs.clear_failure()
        hs.replay(g)
        hs.thread_synchronize()
        hs.fini()

    def test_transient_fault_during_replay_retries(self):
        hs = scale_runtime(failure_policy="retry")
        s = hs.stream_create(domain=1, ncores=4)
        data = np.arange(8.0)
        buf = hs.wrap(data)
        g = capture_pipeline(hs, s, buf)
        # Arm a one-shot transient fault on the *replayed* compute.
        inject_faults(
            hs,
            FaultPlan([FaultSpec(kernel="scale", nth=1, transient=True)]),
        )
        hs.replay(g)
        hs.thread_synchronize()
        assert (data == np.arange(8.0) * 4).all()
        m = hs.metrics()
        assert m["actions"]["retried"] == 1
        assert m["actions"]["failed"] == 0
        hs.fini()

    def test_fault_during_replay_fail_fast(self):
        hs = scale_runtime(failure_policy="fail_fast")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.wrap(np.arange(8.0))
        g = capture_pipeline(hs, s, buf)
        inject_faults(hs, FaultPlan([FaultSpec(kernel="scale", nth=1)]))
        hs.replay(g)
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        # fail_fast rejects further replays until cleared.
        with pytest.raises(InjectedFault):
            hs.replay(g)
        hs.clear_failure()
        hs.replay(g)
        hs.thread_synchronize()
        hs.fini()
