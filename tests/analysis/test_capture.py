"""Tests for capture mode: cold-run semantics, shadow-window policy
replay, dangling-wait triage, and session scoping."""

import pytest

from repro import HStreams, OperandMode, make_platform
from repro.analysis import CaptureBackend, capture_session
from repro.core.capture import ActionEvent, BufferEvent, StreamEvent, SyncEvent
from repro.core.events import HEvent


def capture_runtime():
    hs = HStreams(
        platform=make_platform("HSW", 1), backend="sim", capture_only=True
    )
    hs.register_kernel("k", fn=lambda *a: None)
    return hs


class TestColdRunSemantics:
    def test_capture_events_never_poll_complete(self):
        # Layers that elide synchronization when a producer polls
        # complete (OmpSs runtime, linalg FlowContext) must behave as
        # on a cold machine, or the captured graph loses exactly the
        # edges the analyzer checks.
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_xfer(s, b)
        assert not ev.is_complete()
        hs.thread_synchronize()
        assert not ev.is_complete()  # still cold: nothing ever ran

    def test_capture_backend_is_installed(self):
        hs = capture_runtime()
        assert isinstance(hs.backend, CaptureBackend)
        assert hs.capture is not None

    def test_no_virtual_time_passes_for_work(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=1 << 20)
        t0 = hs.elapsed()
        hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        # The capture clock ticks per API call (monotonicity only);
        # a megabyte transfer costs the same as a no-op.
        assert hs.elapsed() - t0 <= 3.0


class TestRecordedDependences:
    def test_policy_deps_recorded_despite_instant_completion(self):
        # The scheduler's real window is empty under capture (everything
        # folds at admission): dep edges must come from the shadow
        # replay of the stream's own policy.
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        hs.enqueue_xfer(s, b)
        hs.enqueue_compute(s, "k", args=(b.tensor((8,)),))
        first, second = hs.capture.trace.actions()
        assert first.action.seq in second.dep_seqs

    def test_disjoint_actions_record_no_edge(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "k", args=(b.range(0, 32, OperandMode.OUT),))
        hs.enqueue_compute(s, "k", args=(b.range(32, 32, OperandMode.OUT),))
        first, second = hs.capture.trace.actions()
        assert second.dep_seqs == ()

    def test_explicit_event_dep_recorded_across_streams(self):
        hs = capture_runtime()
        s1 = hs.stream_create(domain=1, ncores=30)
        s2 = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s1, "k", args=(b.tensor((8,)),))
        hs.event_stream_wait(s2, [ev])
        producer, sync = hs.capture.trace.actions()
        assert producer.action.seq in sync.dep_seqs
        assert sync.dangling == ()  # known seq: an edge, not a hazard

    def test_bare_event_wait_is_recorded_as_dangling(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        bare = HEvent(hs.backend, hs.backend.make_handle())
        hs.event_stream_wait(s, [bare])
        (sync,) = hs.capture.trace.actions()
        assert sync.dangling
        assert "bare event" in sync.dangling[0]


class TestTraceContents:
    def test_trace_records_every_lifecycle_kind(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        hs.enqueue_xfer(s, b)
        hs.stream_synchronize(s)
        hs.buffer_evict(b, 1)
        hs.buffer_destroy(b)
        kinds = {type(e) for e in hs.capture.trace}
        assert kinds == {ActionEvent, BufferEvent, StreamEvent, SyncEvent}
        buffer_kinds = [
            e.kind for e in hs.capture.trace if isinstance(e, BufferEvent)
        ]
        assert buffer_kinds == ["create", "evict", "destroy"]

    def test_sites_point_into_user_code(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        hs.enqueue_xfer(s, b)
        (ev,) = hs.capture.trace.actions()
        assert ev.site is not None
        assert ev.site[0] == __file__

    def test_positions_are_strictly_increasing(self):
        hs = capture_runtime()
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=64)
        hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        positions = [e.pos for e in hs.capture.trace]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


class TestCaptureSession:
    def test_session_forces_capture_on_any_backend(self):
        with capture_session() as runtimes:
            hs = HStreams(platform=make_platform("HSW", 1), backend="sim")
            assert isinstance(hs.backend, CaptureBackend)
        assert runtimes == [hs]

    def test_sessions_do_not_nest(self):
        # The second capture_session raises from __enter__; the raises
        # context between the two catches it, all in one statement.
        with capture_session(), pytest.raises(
            RuntimeError, match="nest"
        ), capture_session():
            pass  # pragma: no cover

    def test_nested_session_raises_invalid_state(self):
        # The guard is a typed HStreamsInvalid (still a RuntimeError for
        # callers that caught the historical bare error).
        from repro.core.errors import HStreamsError, HStreamsInvalid

        with capture_session():
            with pytest.raises(HStreamsInvalid) as exc:
                with capture_session():
                    pass  # pragma: no cover
        assert isinstance(exc.value, HStreamsError)
        assert isinstance(exc.value, RuntimeError)
        assert exc.value.code == "HSTR_RESULT_INVALID_STATE"

    def test_session_reusable_after_failure(self):
        # A session whose body raises — including the nesting error —
        # must leave the registry clean for the next session.
        with pytest.raises(ValueError):
            with capture_session():
                raise ValueError("program bug")
        with capture_session() as runtimes:
            hs = HStreams(platform=make_platform("HSW", 1), backend="thread")
            assert isinstance(hs.backend, CaptureBackend)
        assert runtimes == [hs]

    def test_outside_a_session_backends_are_real(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim")
        assert not isinstance(hs.backend, CaptureBackend)
        assert hs.capture is None

    def test_analysis_capture_is_a_core_reexport(self):
        # The analyzer's capture names are the core objects, not copies.
        import repro.analysis as analysis
        import repro.core.capture as core

        names = ("ActionEvent", "BufferEvent", "CaptureBackend", "ProgramCapture",
                 "ProgramTrace", "StreamEvent", "SyncEvent", "capture_session")
        assert all(getattr(analysis, n) is getattr(core, n) for n in names)
