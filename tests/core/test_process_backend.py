"""Process backend: shared-memory lifecycle, worker death, parity.

What this file pins down beyond the parity suites (which CI also runs
with ``REPRO_BACKEND=process``):

* segment lifecycle — every card instance is one ``/dev/shm`` segment,
  refcounted across worker attachments, unlinked eagerly on evict /
  destroy and at ``fini()`` (zero leaked segments, crash-safe via the
  host's resource tracker);
* worker death — a SIGKILLed worker fails its in-flight actions with a
  transient :class:`HStreamsBackendDied` instead of hanging waits, and
  ``failure_policy="retry"`` respawns a fresh worker;
* remote eligibility — only picklable kernels execute in workers, under
  every start method; closures (which can capture host-process state)
  and unpicklable arguments fall back to host-side execution with
  identical results, so thread-backend programs keep their semantics.
"""

import glob
import multiprocessing as mp
import operator
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    HStreams,
    XferDirection,
    make_platform,
    is_transient,
    mark_transient,
)
from repro.core.errors import HStreamsBackendDied, HStreamsTimedOut
from repro.core.faults import inject_faults
from repro.core.process_backend import _MAX_INFLIGHT, ProcessBackend
from repro.core.properties import RuntimeConfig


#: CI runs this file once per start method (the process-parity job);
#: unset, the backend picks its default.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD")


def runtime(ncards=2, start_method=START_METHOD, **kw):
    return HStreams(
        platform=make_platform("HSW", ncards),
        backend=ProcessBackend(start_method=start_method),
        trace=False,
        **kw,
    )


# Module-level so the spawn start method can pickle them by reference.
def _double(x):
    np.multiply(x, 2.0, out=x)


def _sleep_kernel(x, seconds):
    time.sleep(seconds)
    x += 1.0


def _stamp(x, seconds):
    """Record [start, end] of this call on the system-wide clock."""
    x[0] = time.monotonic()
    time.sleep(seconds)
    x[1] = time.monotonic()


def _noop(*_args):
    pass


def _roundtrip(hs, stream, buf, n, kernel, args):
    hs.enqueue_xfer(stream, buf)
    hs.enqueue_compute(stream, kernel, args=args)
    hs.enqueue_xfer(stream, buf, XferDirection.SINK_TO_SRC)


def shm_entries(names):
    """Which of the named segments still exist under /dev/shm."""
    return [n for n in names if os.path.exists(f"/dev/shm/{n}")]


class TestExecution:
    def test_two_domain_roundtrip_runs_remote(self):
        hs = runtime()
        hs.register_kernel("double", fn=_double)
        arrays, bufs = [], []
        for d in (1, 2):
            s = hs.stream_create(domain=d, ncores=1)
            a = np.arange(16.0)
            buf = hs.wrap(a)
            _roundtrip(hs, s, buf, 16, "double", (buf.tensor((16,)),))
            arrays.append(a)
            bufs.append(buf)
        hs.thread_synchronize()
        for a in arrays:
            np.testing.assert_array_equal(a, np.arange(16.0) * 2)
        m = hs.metrics()["backend"]
        assert m["name"] == "process"
        assert m["remote_actions"] == 2
        assert m["fallback_actions"] == 0
        assert set(m["workers"]) == {1, 2}
        assert all(w["alive"] for w in m["workers"].values())
        # Two H2D and two D2H memcpys over the shared mappings; nothing
        # was elided or host-sunk, so no zero-copy bytes yet.
        assert m["bytes_copied"] == 4 * 128
        assert m["bytes_zero_copy"] == 0
        hs.fini()

    def test_closure_kernels_fall_back_host_side(self):
        # Even under fork (where the child *could* inherit the closure by
        # memory image) an unpicklable kernel stays host-side: a closure
        # is exactly the kernel that can capture host state, and its
        # side effects must stay visible to the host program.
        hs = runtime(start_method="fork")
        seen = []
        def scale(x):
            seen.append(os.getpid())
            np.multiply(x, 3.0, out=x)
        hs.register_kernel("scale", fn=scale)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.arange(8.0)
        buf = hs.wrap(a)
        _roundtrip(hs, s, buf, 8, "scale", (buf.tensor((8,)),))
        hs.thread_synchronize()
        np.testing.assert_array_equal(a, np.arange(8.0) * 3)
        assert seen == [os.getpid()]
        m = hs.metrics()["backend"]
        assert m["remote_actions"] == 0 and m["fallback_actions"] == 1
        hs.fini()

    def test_spawn_ships_picklable_kernels(self):
        hs = runtime(start_method="spawn")
        hs.register_kernel("iadd", fn=operator.iadd)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.arange(8.0)
        buf = hs.wrap(a)
        _roundtrip(hs, s, buf, 8, "iadd", (buf.tensor((8,)), 5.0))
        hs.thread_synchronize()
        np.testing.assert_array_equal(a, np.arange(8.0) + 5)
        assert hs.metrics()["backend"]["start_method"] == "spawn"
        assert hs.metrics()["backend"]["remote_actions"] == 1
        hs.fini()

    def test_unpicklable_argument_falls_back_host_side(self):
        hs = runtime()
        lock = threading.Lock()  # cannot cross a process boundary

        def guarded(x, lk):
            with lk:
                x += 1.0

        hs.register_kernel("guarded", fn=guarded)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.zeros(4)
        buf = hs.wrap(a)
        _roundtrip(hs, s, buf, 4, "guarded", (buf.tensor((4,)), lock))
        hs.thread_synchronize()
        np.testing.assert_array_equal(a, np.ones(4))
        m = hs.metrics()["backend"]
        assert m["fallback_actions"] == 1
        assert m["remote_actions"] == 0
        hs.fini()

    def test_host_domain_compute_stays_host_side(self):
        hs = runtime()
        seen = []
        hs.register_kernel("note", fn=lambda x: seen.append(os.getpid()))
        s = hs.stream_create(domain=0, ncores=1)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "note", args=(buf.all_inout(),))
        hs.thread_synchronize()
        # Ran in this process (a worker could not mutate our list).
        assert seen == [os.getpid()]
        hs.fini()

    def test_kernel_error_crosses_the_boundary_with_transient_flag(self):
        def flaky(x):
            raise mark_transient(ValueError("remote transient"))

        hs = runtime(failure_policy="retry")
        hs.register_kernel("flaky", fn=flaky)
        s = hs.stream_create(domain=1, ncores=1)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "flaky", args=(buf.all_inout(),))
        with pytest.raises(ValueError, match="remote transient"):
            hs.thread_synchronize()
        # Retries happened (the flag survived pickling), then the cap hit.
        assert ev.record.retries == hs.config.retry_limit
        hs.clear_failure()
        hs.fini()


class TestSegmentLifecycle:
    def test_instances_are_shared_memory_segments(self):
        hs = runtime()
        s = hs.stream_create(domain=1, ncores=1)
        buf = hs.wrap(np.arange(32.0))
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        names = hs.backend.live_segment_names()
        assert len(names) == 1
        assert shm_entries(names) == names
        m = hs.metrics()["backend"]["segments"]
        assert m["created"] == 1 and m["live"] == 1 and m["unlinked"] == 0
        hs.fini()
        assert shm_entries(names) == []

    def test_evict_unlinks_the_segment(self):
        hs = runtime()
        s = hs.stream_create(domain=1, ncores=1)
        buf = hs.wrap(np.arange(32.0))
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        names = hs.backend.live_segment_names()
        hs.buffer_evict(buf, 1)
        assert shm_entries(names) == []
        m = hs.metrics()["backend"]["segments"]
        assert m["live"] == 0 and m["unlinked"] == 1
        hs.fini()

    def test_destroy_unlinks_every_domain_instance(self):
        hs = runtime(ncards=2)
        buf = hs.wrap(np.arange(32.0))
        for d in (1, 2):
            s = hs.stream_create(domain=d, ncores=1)
            hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        names = hs.backend.live_segment_names()
        assert len(names) == 2
        hs.buffer_destroy(buf)
        assert shm_entries(names) == []
        assert hs.metrics()["backend"]["segments"]["live"] == 0
        hs.fini()

    def test_fini_leaves_zero_dev_shm_segments(self):
        hs = runtime(ncards=2)
        hs.register_kernel("double", fn=_double)
        names = []
        for d in (1, 2):
            s = hs.stream_create(domain=d, ncores=1)
            a = np.arange(64.0)
            buf = hs.wrap(a)
            _roundtrip(hs, s, buf, 64, "double", (buf.tensor((64,)),))
        hs.thread_synchronize()
        names = hs.backend.live_segment_names()
        assert len(names) == 2
        hs.fini()
        assert shm_entries(names) == []

    def test_no_leak_after_fault_matrix(self):
        """Every fault×policy cell tears down to zero live segments."""
        for policy in ("poison", "fail_fast", "retry"):
            for transient in (False, True):
                hs = runtime(failure_policy=policy)
                hs.register_kernel("double", fn=_double)
                inject_faults(hs, FaultPlan(specs=(
                    FaultSpec(kind="compute", kernel="double", nth=1,
                              times=2, transient=transient),
                )))
                s = hs.stream_create(domain=1, ncores=1)
                a = np.arange(16.0)
                buf = hs.wrap(a)
                try:
                    # fail_fast may surface at an enqueue, not the sync.
                    _roundtrip(hs, s, buf, 16, "double", (buf.tensor((16,)),))
                    hs.thread_synchronize()
                except Exception:
                    hs.clear_failure()
                names = hs.backend.live_segment_names()
                hs.fini()
                assert shm_entries(names) == [], (policy, transient)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_lifecycle_parity_across_start_methods(self, start_method):
        hs = runtime(start_method=start_method)
        hs.register_kernel("iadd", fn=operator.iadd)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.arange(8.0)
        buf = hs.wrap(a)
        _roundtrip(hs, s, buf, 8, "iadd", (buf.tensor((8,)), 1.0))
        hs.thread_synchronize()
        names = hs.backend.live_segment_names()
        assert len(names) == 1
        np.testing.assert_array_equal(a, np.arange(8.0) + 1)
        hs.fini()
        assert shm_entries(names) == []


class TestPipelining:
    """Consecutive ready computes of a stream queue up in the worker."""

    def test_in_flight_commands_stay_under_the_bound(self):
        hs = runtime(ncards=1)
        hs.register_kernel("sleep", fn=_sleep_kernel)
        hs.register_kernel("noop", fn=_noop)
        s = hs.stream_create(domain=1, ncores=1)
        buf = hs.wrap(np.zeros(8))
        hs.enqueue_xfer(s, buf)
        depths = []

        def sample():
            depths.append(hs.metrics()["backend"]["workers"][1]["queue_depth"])

        # A slow head of line, then 5 000 computes that are all ready
        # at once: the slot ships until the window is full and waits.
        hs.enqueue_compute(s, "sleep", args=(buf.tensor((8,)), 0.3))
        sample()
        for i in range(5000):
            hs.enqueue_compute(s, "noop")
            if i % 100 == 0:
                sample()
        while hs.scheduler.outstanding:
            sample()
            time.sleep(0.002)
        hs.thread_synchronize(timeout=60.0)
        assert max(depths) == _MAX_INFLIGHT  # it did pipeline, and no further
        m = hs.metrics()["backend"]
        assert m["remote_actions"] == 5001 and m["fallback_actions"] == 0
        hs.fini()

    def test_budget_is_judged_on_kernel_time_not_queueing(self):
        hs = runtime(ncards=1, config=RuntimeConfig(action_timeout_s=0.02))
        hs.register_kernel("sleep", fn=_sleep_kernel)
        s = hs.stream_create(domain=1, ncores=1)
        bufs = [hs.wrap(np.zeros(8)) for _ in range(64)]
        for buf in bufs:
            hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        # 64 x 1 ms back to back: the last one is delivered ~64 ms after
        # it was shipped, yet none of them ran over 20 ms.
        events = [
            hs.enqueue_compute(s, "sleep", args=(buf.tensor((8,)), 0.001))
            for buf in bufs
        ]
        hs.thread_synchronize(timeout=60.0)
        assert all(ev.record.state == "complete" for ev in events)
        slow = hs.enqueue_compute(s, "sleep", args=(bufs[0].tensor((8,)), 0.05))
        with pytest.raises(HStreamsTimedOut, match="action_timeout_s"):
            hs.thread_synchronize(timeout=60.0)
        assert slow.record.state == "failed"
        hs.clear_failure()
        hs.fini()

    def test_remote_and_host_side_kernels_of_one_stream_stay_serial(self):
        hs = runtime(ncards=1)
        hs.register_kernel("remote", fn=_stamp)
        host_spans = []

        def host_side(x, seconds):  # a closure: runs in this process
            t0 = time.monotonic()
            time.sleep(seconds)
            host_spans.append((t0, time.monotonic()))

        hs.register_kernel("host", fn=host_side)
        s = hs.stream_create(domain=1, ncores=1)
        stamps = [np.zeros(2) for _ in range(6)]
        bufs = [hs.wrap(a) for a in stamps]
        for buf in bufs:
            hs.enqueue_xfer(s, buf)
        # Independent operands, so every compute is ready at once and
        # only the stream's slot keeps them apart.
        for i, buf in enumerate(bufs):
            hs.enqueue_compute(s, "remote", args=(buf.tensor((2,)), 0.01))
            if i % 2:
                hs.enqueue_compute(s, "host", args=(None, 0.01))
        for buf in bufs:
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize(timeout=60.0)
        m = hs.metrics()["backend"]
        assert m["remote_actions"] == 6 and m["fallback_actions"] == 3
        spans = sorted(host_spans + [(a[0], a[1]) for a in stamps])
        overlap = sum(
            max(0.0, end - nxt) for (_, end), (nxt, _) in zip(spans, spans[1:])
        )
        assert overlap == 0.0
        hs.fini()


def _wait_for_worker(hs, domain, timeout=10.0):
    """The pid of ``domain``'s worker once a compute has been shipped to it.

    The worker is spawned before its first compute is shipped; killing
    it in that window would let a respawned worker run the compute.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        w = hs.backend._workers.get(domain)
        if w is not None and w.process.pid is not None and w.inflight:
            return w.process.pid
        time.sleep(0.01)
    raise AssertionError(f"no worker appeared for domain {domain}")


class TestForkSafety:
    def test_worker_attach_survives_tracker_lock_held_at_fork(self):
        # Deterministic reproduction of a fork race: the resource
        # tracker's process-private lock is held (as another slot
        # thread's segment registration would hold it) at the moment
        # the first compute dispatch forks the domain worker. The fork
        # image then contains the lock in the held state forever, so a
        # worker whose first segment attach touched the tracker would
        # deadlock before completing any action. Workers detach from
        # the tracker at startup precisely so this cannot happen.
        from multiprocessing import resource_tracker

        tracker = getattr(resource_tracker, "_resource_tracker", None)
        lock = getattr(tracker, "_lock", None)
        if lock is None:
            pytest.skip("stdlib resource tracker has no lock to hold")
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")

        hs = runtime(
            ncards=1,
            start_method="fork",
            config=RuntimeConfig(wait_timeout_s=60.0),
        )
        hs.register_kernel("double", fn=_double)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.arange(16.0)
        buf = hs.wrap(a)
        # Segment creation (and its tracker registration) happens here,
        # while the tracker lock is still free.
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        assert lock.acquire(timeout=10)
        try:
            # First compute → worker fork + first remote attach, with
            # the tracker lock held across both.
            hs.enqueue_compute(s, "double", args=(buf.tensor((16,)),))
            hs.thread_synchronize()
        finally:
            lock.release()
        hs.enqueue_xfer(s, buf, direction=XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()
        np.testing.assert_array_equal(a, np.arange(16.0) * 2)
        assert hs.metrics()["backend"]["remote_actions"] == 1
        hs.fini()


class TestWorkerDeath:
    def test_killed_worker_fails_actions_instead_of_hanging(self):
        hs = runtime()
        hs.register_kernel("sleep", fn=_sleep_kernel)
        s = hs.stream_create(domain=1, ncores=1)
        buf = hs.wrap(np.zeros(8))
        hs.enqueue_xfer(s, buf)
        ev = hs.enqueue_compute(s, "sleep", args=(buf.tensor((8,)), 30.0))
        pid = _wait_for_worker(hs, 1)
        os.kill(pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(HStreamsBackendDied, match="exited"):
            hs.thread_synchronize(timeout=20.0)
        # The wait resolved via the pump's death detection, not the
        # 30-second kernel (which never finishes anywhere).
        assert time.monotonic() - t0 < 15.0
        assert ev.record.state == "failed"
        assert is_transient(hs.failure_errors()[0])
        m = hs.metrics()["backend"]
        assert m["worker_deaths"] == 1
        hs.clear_failure()
        hs.fini()

    def test_retry_policy_respawns_a_fresh_worker(self):
        hs = runtime(failure_policy="retry")
        hs.register_kernel("sleep", fn=_sleep_kernel)
        s = hs.stream_create(domain=1, ncores=1)
        a = np.zeros(8)
        buf = hs.wrap(a)
        hs.enqueue_xfer(s, buf)
        ev = hs.enqueue_compute(s, "sleep", args=(buf.tensor((8,)), 0.4))
        hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        pid = _wait_for_worker(hs, 1)
        time.sleep(0.1)  # let the kernel start sleeping in the worker
        os.kill(pid, signal.SIGKILL)
        hs.thread_synchronize(timeout=30.0)
        assert not hs.failed
        assert ev.record.state == "complete"
        assert ev.record.retries >= 1
        np.testing.assert_array_equal(a, np.ones(8))
        m = hs.metrics()["backend"]
        assert m["worker_deaths"] == 1
        assert m["respawns"] == 1
        new_pid = hs.backend._workers[1].process.pid
        assert new_pid != pid
        hs.fini()

    def test_backend_died_error_is_picklable_and_transient(self):
        err = mark_transient(HStreamsBackendDied("worker gone"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, HStreamsBackendDied)
        assert is_transient(clone)
        assert clone.code == "HSTR_RESULT_BACKEND_DIED"


class TestMetricsBlock:
    def test_backend_block_only_on_process_backend(self):
        hs = HStreams(make_platform("HSW", 1), backend="thread", trace=False)
        assert "backend" not in hs.metrics()
        hs.fini()
        hs = runtime()
        m = hs.metrics()["backend"]
        for key in ("workers", "remote_actions", "fallback_actions",
                    "ipc_round_trip_s", "bytes_zero_copy", "bytes_copied",
                    "worker_deaths", "respawns", "segments"):
            assert key in m, key
        hs.fini()

    def test_env_override_upgrades_thread_to_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        hs = HStreams(make_platform("HSW", 1), backend="thread", trace=False)
        assert isinstance(hs.backend, ProcessBackend)
        hs.fini()
        # Explicit sim requests are never overridden.
        hs = HStreams(make_platform("HSW", 1), backend="sim", trace=False)
        assert not isinstance(hs.backend, ProcessBackend)
        hs.fini()
