"""The worker model: streams are slots, the domain is the executor.

What the real backends promise about *who runs what*, independent of
kernels and data (the parity suites pin those):

* a stream costs a dictionary entry, not a thread — the OS thread count
  is bounded by the domain's cores however many streams exist, and a
  destroyed stream leaves nothing behind;
* a stream's computes run one at a time in dispatch order (a retry
  keeps its place), while streams of one domain overlap;
* kernels may block on each other across streams of a domain as long
  as the domain has no more streams than cores;
* the process backend learns of a dead worker from its process
  sentinel, with no poll interval, after delivering the completions
  the worker had already written.

Kernels here are closures unless a test says otherwise, so under the
process backend they run host-side on the same domain worker threads
the thread backend uses; CI also runs this file with
``REPRO_BACKEND=process``.
"""

import os
import signal
import threading
import time

import pytest

from repro import HStreams, make_platform, mark_transient
from repro.core import process_backend
from repro.core.errors import HStreamsBackendDied
from repro.core.properties import RuntimeConfig

BACKENDS = ["thread", "process"]
WAIT_S = 20.0


def runtime(backend, **kw):
    return HStreams(
        platform=make_platform("HSW", 1), backend=backend, trace=False, **kw
    )


def _noop(*_args):
    """Module-level, so the process backend ships it to a worker."""


def _sleep(x, seconds):
    time.sleep(seconds)


def _die(x):
    os.kill(os.getpid(), signal.SIGKILL)


def stream_state(hs):
    """Every per-stream entry the backend holds, by container."""
    backend = hs.backend
    state = {}
    for i, workers in enumerate(backend._domain_workers):
        with workers._cv:
            state[f"slots:d{i}"] = dict(workers._slots)
    if isinstance(backend, process_backend.ProcessBackend):
        with backend._cv:
            state["shipped"] = dict(backend._shipped)
    return state


@pytest.mark.parametrize("backend", BACKENDS)
class TestStreamsAreSlots:
    def test_thousand_streams_cost_no_threads(self, backend):
        # Remote computes on the process backend, host computes on the
        # thread backend: the bound holds on both paths.
        domain = 1 if backend == "process" else 0
        hs = runtime(backend)
        cores = hs.domain(domain).device.total_cores
        hs.register_kernel("noop", fn=_noop)
        before = threading.active_count()
        streams = [hs.stream_create(domain=domain, ncores=1) for _ in range(1000)]
        for s in streams:
            hs.enqueue_compute(s, "noop")
        hs.thread_synchronize(timeout=WAIT_S)
        # + the completion pump, where there is one.
        assert threading.active_count() - before <= cores + 1
        workers = [
            t for t in threading.enumerate()
            if t.name.startswith(f"hstr-d{domain}-w")
        ]
        assert 1 <= len(workers) <= cores
        assert len(stream_state(hs)[f"slots:d{domain}"]) == 1000
        for s in streams:
            hs.stream_destroy(s)
        assert not any(stream_state(hs).values())
        hs.fini()

    def test_one_stream_is_serial_two_streams_overlap(self, backend):
        hs = runtime(backend)
        lock = threading.Lock()
        inside = {}
        worst = {}

        def tracked(x, key):
            with lock:
                inside[key] = inside.get(key, 0) + 1
                worst[key] = max(worst.get(key, 0), inside[key])
            time.sleep(0.002)
            with lock:
                inside[key] -= 1

        both_in = threading.Barrier(2)

        def meet(x):
            both_in.wait(WAIT_S)  # passes only with two kernels running

        hs.register_kernel("tracked", fn=tracked)
        hs.register_kernel("meet", fn=meet)
        a, b = (hs.stream_create(domain=1, ncores=1) for _ in range(2))
        for _ in range(50):
            # No operands: all 50 are ready at once; only the slot
            # serializes them.
            hs.enqueue_compute(a, "tracked", args=(None, "a"))
        for s in (a, b):
            hs.enqueue_compute(s, "meet", args=(None,))
        hs.thread_synchronize(timeout=WAIT_S)
        assert worst == {"a": 1}
        assert not both_in.broken
        hs.fini()

    def test_retry_keeps_its_place_in_the_stream(self, backend):
        hs = runtime(
            backend,
            failure_policy="retry",
            config=RuntimeConfig(retry_backoff_s=0.01),
        )
        order = []
        attempts = []
        queued_behind = threading.Event()

        def flaky(x):
            attempts.append(x)
            if len(attempts) == 1:
                # Fail only once "b" sits behind us in the slot.
                assert queued_behind.wait(WAIT_S)
                raise mark_transient(RuntimeError("try again"))
            order.append("a")

        hs.register_kernel("flaky", fn=flaky)
        hs.register_kernel("b", fn=lambda x: order.append("b"))
        s = hs.stream_create(domain=1, ncores=1)
        first = hs.enqueue_compute(s, "flaky", args=(None,))
        hs.enqueue_compute(s, "b", args=(None,))  # independent, ready now
        queued_behind.set()
        hs.thread_synchronize(timeout=WAIT_S)
        assert first.record.retries == 1
        assert order == ["a", "b"]
        hs.fini()

    def test_destroy_does_not_wait_for_other_streams(self, backend):
        hs = runtime(backend)
        gate = threading.Event()
        started = threading.Event()

        def hold(x):
            started.set()
            assert gate.wait(WAIT_S)

        hs.register_kernel("hold", fn=hold)
        hs.register_kernel("noop", fn=_noop)
        busy, idle = (hs.stream_create(domain=1, ncores=1) for _ in range(2))
        hs.enqueue_compute(idle, "noop")
        hs.stream_synchronize(idle)
        hs.enqueue_compute(busy, "hold", args=(None,))
        assert started.wait(WAIT_S)
        t0 = time.monotonic()
        hs.stream_destroy(idle)
        elapsed = time.monotonic() - t0
        gate.set()
        hs.thread_synchronize(timeout=WAIT_S)
        assert elapsed < 1.0
        hs.fini()

    def test_kernels_may_wait_on_other_streams_of_the_domain(self, backend):
        hs = runtime(backend)
        nstreams = 8
        assert nstreams <= hs.domain(1).device.total_cores
        release = threading.Event()
        released = []

        def waiter(x):
            released.append(release.wait(WAIT_S))

        hs.register_kernel("waiter", fn=waiter)
        hs.register_kernel("release", fn=lambda x: release.set())
        streams = [hs.stream_create(domain=1, ncores=1) for _ in range(nstreams)]
        for s in streams[:-1]:
            hs.enqueue_compute(s, "waiter", args=(None,))
        hs.enqueue_compute(streams[-1], "release", args=(None,))
        hs.thread_synchronize(timeout=WAIT_S)
        assert released == [True] * (nstreams - 1)
        hs.fini()


class TestWorkerDeathBySentinel:
    def test_death_needs_no_poll_and_raced_completions_come_first(
        self, monkeypatch
    ):
        real_wait = process_backend.mp_connection.wait
        timeouts = []
        dawdle = threading.Event()

        def wait(objects, timeout=None):
            if len(objects) == 1:  # Connection.poll() of one pipe
                return real_wait(objects, timeout)
            timeouts.append(timeout)
            if dawdle.is_set():
                # Let the worker write a completion *and* die before
                # the pump looks: both arrive in one wake-up.
                time.sleep(0.3)
            return real_wait(objects, timeout)

        monkeypatch.setattr(process_backend.mp_connection, "wait", wait)
        hs = runtime("process")
        hs.register_kernel("sleep", fn=_sleep)
        hs.register_kernel("die", fn=_die)
        s = hs.stream_create(domain=1, ncores=1)
        bufs = [hs.buffer_create(nbytes=64) for _ in range(3)]
        hs.enqueue_compute(s, "sleep", args=(bufs[0].all_inout(), 0.0))
        hs.thread_synchronize(timeout=WAIT_S)  # worker up, pump waiting
        dawdle.set()
        first = hs.enqueue_compute(s, "sleep", args=(bufs[0].all_inout(), 0.0))
        raced = hs.enqueue_compute(s, "sleep", args=(bufs[1].all_inout(), 0.05))
        lost = hs.enqueue_compute(s, "die", args=(bufs[2].all_inout(),))
        with pytest.raises(HStreamsBackendDied, match="exited"):
            hs.thread_synchronize(timeout=WAIT_S)
        dawdle.clear()
        assert first.record.state == "complete"
        assert raced.record.state == "complete"
        assert lost.record.state == "failed"
        assert hs.metrics()["backend"]["worker_deaths"] == 1
        # The pump only ever blocks indefinitely: no liveness interval.
        assert timeouts and set(timeouts) == {None}
        hs.clear_failure()
        hs.fini()

    def test_sigkill_mid_kernel_fails_in_flight_work_promptly(self):
        hs = runtime("process")
        hs.register_kernel("sleep", fn=_sleep)
        s = hs.stream_create(domain=1, ncores=1)
        bufs = [hs.buffer_create(nbytes=64) for _ in range(3)]
        hs.enqueue_compute(s, "sleep", args=(bufs[0].all_inout(), 0.0))
        hs.thread_synchronize(timeout=WAIT_S)
        pid = hs.metrics()["backend"]["workers"][1]["pid"]
        # Two commands in the pipe behind a kernel that never returns.
        events = [
            hs.enqueue_compute(s, "sleep", args=(buf.all_inout(), 30.0))
            for buf in bufs
        ]
        while hs.metrics()["backend"]["workers"][1]["queue_depth"] < 3:
            time.sleep(0.001)
        os.kill(pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(HStreamsBackendDied):
            hs.thread_synchronize(timeout=WAIT_S)
        assert time.monotonic() - t0 < 5.0
        assert [ev.record.state for ev in events] == ["failed"] * 3
        assert stream_state(hs)["shipped"] == {}
        hs.clear_failure()
        hs.fini()
