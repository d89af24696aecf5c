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
* a card's transfers ride one DMA lane per direction in the same
  worker set: at most one copy per (card, direction) at a time, in
  readiness order (a retry keeps its place), overlapping computes, and
  adding at most one thread per lane to the cores bound;
* a kernel that enqueues onto its own domain and waits completes: only
  a reported completion, never a running kernel, keeps what it readied;
* the process backend learns of a dead worker from its process
  sentinel, with no poll interval, after delivering the completions
  the worker had already written.

Kernels here are closures unless a test says otherwise, so under the
process backend they run host-side on the same domain worker threads
the thread backend uses; CI also runs this file with
``REPRO_BACKEND=process``.
"""

import collections
import os
import random
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import HStreams, XferDirection, make_platform, mark_transient
from repro.core import process_backend
from repro.core.actions import Action, ActionKind
from repro.core.errors import HStreamsBackendDied
from repro.core.properties import RuntimeConfig
from repro.core.thread_backend import ThreadBackend

BACKENDS = ["thread", "process"]
WAIT_S = 20.0


def runtime(backend, ncards=1, card="KNC", **kw):
    return HStreams(
        platform=make_platform("HSW", ncards, card=card),
        backend=backend,
        trace=False,
        **kw,
    )


def _noop(*_args):
    """Module-level, so the process backend ships it to a worker."""


def _sleep(x, seconds):
    time.sleep(seconds)


def _die(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _inc(x):
    x += 1.0


def idle_state(hs):
    """What each worker set still has queued, claimed or held; all
    zero/empty once the runtime is idle, or a wake-up was lost."""
    state = {}
    for i, workers in enumerate(hs.backend._domain_workers):
        with workers._cv:
            state[i] = (
                len(workers._ready),
                len(workers._ready_lanes),
                workers._computing,
                dict(workers._claims),
                [k for k, s in workers._slots.items() if s.running or s.pending],
                [d for d, s in workers._lanes.items() if s.running or s.pending],
            )
    return state


IDLE = (0, 0, 0, {}, [], [])


def track_transfers(monkeypatch, hold_s):
    """Patch transfer execution on both real backends to record, per
    (card, direction), how many copies were inside at once."""
    real = ThreadBackend._execute
    lock = threading.Lock()
    inside = collections.Counter()
    worst = collections.Counter()
    total = {"now": 0, "peak": 0}

    def tracked(self, action):
        if action.kind is not ActionKind.XFER or action.stream.domain == 0:
            return real(self, action)
        key = (action.stream.domain, action.direction)
        with lock:
            inside[key] += 1
            worst[key] = max(worst[key], inside[key])
            total["now"] += 1
            total["peak"] = max(total["peak"], total["now"])
        try:
            time.sleep(hold_s)
            return real(self, action)
        finally:
            with lock:
                inside[key] -= 1
                total["now"] -= 1

    monkeypatch.setattr(ThreadBackend, "_execute", tracked)
    return worst, total


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


@pytest.mark.parametrize("backend", BACKENDS)
class TestDmaLanes:
    def test_long_kernel_does_not_delay_another_streams_h2d(self, backend):
        hs = runtime(backend)
        started = threading.Event()

        def slow(x):
            started.set()
            time.sleep(0.2)

        hs.register_kernel("slow", fn=slow)
        busy, other = (hs.stream_create(domain=1, ncores=1) for _ in range(2))
        buf = hs.wrap(np.arange(8.0))
        kernel = hs.enqueue_compute(busy, "slow", args=(None,))
        assert started.wait(WAIT_S)
        h2d = hs.enqueue_xfer(other, buf)
        hs.event_wait([h2d], timeout=WAIT_S)
        assert not kernel.is_complete()  # the copy landed mid-kernel
        hs.thread_synchronize(timeout=WAIT_S)
        assert kernel.is_complete()
        np.testing.assert_array_equal(buf.instance_array(1).view(np.float64),
                                      np.arange(8.0))
        hs.fini()

    def test_one_copy_per_card_and_direction_at_a_time(self, backend, monkeypatch):
        worst, total = track_transfers(monkeypatch, hold_s=0.002)
        hs = runtime(backend, ncards=2)
        streams = [hs.stream_create(domain=1 + i % 2, ncores=1) for i in range(8)]
        ins = [hs.buffer_create(nbytes=64) for _ in range(24)]
        outs = [hs.buffer_create(nbytes=64) for _ in range(24)]
        for i, (a, b) in enumerate(zip(ins, outs)):
            s = streams[i % len(streams)]
            hs.enqueue_xfer(s, a)
            hs.enqueue_xfer(s, b, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize(timeout=WAIT_S)
        assert set(worst) == {
            (d, x) for d in (1, 2) for x in XferDirection
        }
        assert set(worst.values()) == {1}
        assert total["peak"] > 1  # the four lanes did overlap
        assert total["now"] == 0
        hs.fini()

    def test_kernel_may_enqueue_onto_its_own_domain_and_wait(self, backend):
        hs = runtime(backend)
        outer_s, inner_s = (hs.stream_create(domain=1, ncores=1) for _ in range(2))
        buf = hs.wrap(np.zeros(4))
        seen = []

        def outer(x):
            events = [
                hs.enqueue_xfer(inner_s, buf),
                hs.enqueue_compute(inner_s, "inc", args=(buf.tensor((4,)),)),
                hs.enqueue_xfer(inner_s, buf, XferDirection.SINK_TO_SRC),
            ]
            hs.stream_synchronize(inner_s, timeout=WAIT_S)
            seen.append([ev.is_complete() for ev in events])

        hs.register_kernel("inc", fn=_inc)
        hs.register_kernel("outer", fn=outer)
        hs.enqueue_compute(outer_s, "outer", args=(None,))
        hs.thread_synchronize(timeout=WAIT_S)
        assert seen == [[True, True, True]]
        np.testing.assert_array_equal(buf.host_array, np.ones(4))
        hs.fini()

    def test_claimed_kernel_may_wait_on_the_stream_it_left(self, backend):
        # A direct cross-stream edge, as replay and collectives wire
        # them: x's completion readies t on another stream, and its
        # worker keeps t. y waits behind x in x's stream; t blocks on y,
        # so that stream must still be handed to another worker.
        hs = runtime(backend)
        gate = threading.Event()
        y_ran = threading.Event()
        seen = []
        hs.register_kernel("hold", fn=lambda x: gate.wait(WAIT_S))
        hs.register_kernel("mark", fn=lambda x: y_ran.set())
        hs.register_kernel("meet", fn=lambda x: seen.append(y_ran.wait(WAIT_S)))
        s, t_stream = (hs.stream_create(domain=1, ncores=1) for _ in range(2))
        x = hs.enqueue_compute(s, "hold", args=(None,))
        hs.enqueue_compute(s, "mark", args=(None,))
        t = Action(kind=ActionKind.COMPUTE, stream=t_stream, kernel="meet",
                   args=(None,))
        hs.scheduler.enqueue_precomputed(t, [x.action])
        gate.set()
        hs.thread_synchronize(timeout=2 * WAIT_S)
        assert seen == [True]
        hs.fini()

    def test_claimed_kernel_may_wait_on_the_lane_it_left(
        self, backend, monkeypatch
    ):
        # h2d a then h2d b queue on one lane; a's completion readies
        # the kernel and its worker keeps it. The kernel waits for b,
        # which still sits on the lane: the lane must be handed to
        # another worker, not left for the kernel's worker to return to.
        real = ThreadBackend._execute
        release = threading.Event()

        def gated(self, action):
            if action.label == "a":
                assert release.wait(WAIT_S)
            return real(self, action)

        monkeypatch.setattr(ThreadBackend, "_execute", gated)
        hs = runtime(backend)
        later = {}
        seen = []

        def needs_b(x):
            hs.event_wait([later["b"]], timeout=5.0)
            seen.append(later["b"].is_complete())

        hs.register_kernel("needs_b", fn=needs_b)
        s = hs.stream_create(domain=1, ncores=1)
        a, b = (hs.wrap(np.zeros(8)) for _ in range(2))
        hs.enqueue_xfer(s, a, label="a")
        kernel = hs.enqueue_compute(s, "needs_b", args=(a.tensor((8,)),))
        later["b"] = hs.enqueue_xfer(s, b, label="b")
        release.set()
        hs.thread_synchronize(timeout=WAIT_S)
        assert seen == [True] and kernel.is_complete()
        hs.fini()

    def test_retried_transfer_keeps_its_place_on_its_lane(
        self, backend, monkeypatch
    ):
        real = ThreadBackend._execute
        queued_behind = threading.Event()
        order = []
        failed = []

        def flaky(self, action):
            if action.kind is ActionKind.XFER:
                if action.label == "first" and not failed:
                    failed.append(action.seq)
                    # Fail only once the others sit behind us on the lane.
                    assert queued_behind.wait(WAIT_S)
                    raise mark_transient(RuntimeError("try again"))
                order.append(action.label)
            return real(self, action)

        monkeypatch.setattr(ThreadBackend, "_execute", flaky)
        hs = runtime(
            backend,
            failure_policy="retry",
            config=RuntimeConfig(retry_backoff_s=0.01),
        )
        streams = [hs.stream_create(domain=1, ncores=1) for _ in range(4)]
        bufs = [hs.buffer_create(nbytes=64) for _ in range(4)]
        first = hs.enqueue_xfer(streams[0], bufs[0], label="first")
        for i in range(1, 4):  # other streams, disjoint: ready at once
            hs.enqueue_xfer(streams[i], bufs[i], label=f"x{i}")
        queued_behind.set()
        hs.thread_synchronize(timeout=WAIT_S)
        assert first.record.retries == 1
        assert order == ["first", "x1", "x2", "x3"]
        hs.fini()

    def test_thousand_busy_streams_stay_under_cores_plus_lanes(self, backend):
        hs = runtime(backend, card="K40X")
        cores = hs.domain(1).device.total_cores
        gate = threading.Event()
        hs.register_kernel("hold", fn=gate.wait)  # unpicklable: host-side
        before = threading.active_count()
        bufs = [hs.buffer_create(nbytes=64) for _ in range(1000)]
        for buf in bufs:
            s = hs.stream_create(domain=1, ncores=1)
            hs.enqueue_xfer(s, buf)
            hs.enqueue_compute(s, "hold", args=(WAIT_S,))
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        workers = hs.backend._domain_workers[1]
        deadline = time.monotonic() + WAIT_S
        while True:  # every core holds a blocked kernel
            with workers._cv:
                if workers._computing == cores:
                    break
            assert time.monotonic() < deadline
            time.sleep(0.005)
        gate.set()
        hs.thread_synchronize(timeout=WAIT_S)
        # + the completion pump, where there is one.
        assert threading.active_count() - before <= cores + 2 + 1
        assert hs.metrics()["actions"]["completed"] == 3000
        hs.fini()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stress_random_pipelines_lose_no_wakeup(backend, monkeypatch):
    """2 000 random h2d -> compute -> d2h pipelines over more streams
    than cores on two cards, with the interpreter switching threads as
    often as it can: every action completes exactly once, the buffers
    hold exactly one increment per pipeline that touched them, and no
    queue is left holding work."""
    real = ThreadBackend._epilogue
    lock = threading.Lock()
    finished = collections.Counter()

    def counted(self, action, *args):
        with lock:
            finished[action.seq] += 1
        return real(self, action, *args)

    monkeypatch.setattr(ThreadBackend, "_epilogue", counted)
    rng = random.Random(7)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    hs = runtime(backend, ncards=2, card="K40X")
    try:
        cores = hs.domain(1).device.total_cores
        hs.register_kernel("inc", fn=_inc)
        streams = [
            hs.stream_create(domain=1 + i % 2, ncores=1)
            for i in range(2 * (cores + 4))
        ]
        # Dependences are per stream: each buffer belongs to one stream.
        arrays = [np.zeros(4) for _ in range(2 * len(streams))]
        bufs = [hs.wrap(a) for a in arrays]
        uses = collections.Counter()
        for _ in range(2000):
            k = rng.randrange(len(bufs))
            s = streams[k % len(streams)]
            uses[k] += 1
            hs.enqueue_xfer(s, bufs[k])
            hs.enqueue_compute(s, "inc", args=(bufs[k].tensor((4,)),))
            hs.enqueue_xfer(s, bufs[k], XferDirection.SINK_TO_SRC)
        hs.thread_synchronize(timeout=60.0)
        assert hs.scheduler.outstanding == 0
        assert hs.scheduler.check_invariants() == []
        assert len(finished) == 6000 and set(finished.values()) == {1}
        assert all(state == IDLE for state in idle_state(hs).values())
        for k, a in enumerate(arrays):
            np.testing.assert_array_equal(a, np.full(4, float(uses[k])))
    finally:
        sys.setswitchinterval(old_interval)
    # Not in the finally: fini() drains without a timeout, so a lost
    # wake-up must fail the sync above instead of hanging here.
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
