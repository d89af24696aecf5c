"""Failure semantics: poison propagation, error accumulation, sticky
failure state, timeouts, retry-with-backoff, and fault injection.

Every observable behavior is exercised on both executing backends —
the acceptance bar is that a failing program looks the same under the
thread backend (real threads, wall time) and the sim backend (virtual
time), modulo the clock.
"""

import time

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    HStreams,
    InjectedFault,
    RuntimeConfig,
    make_platform,
    mark_transient,
)
from repro.core.actions import OperandMode
from repro.core.errors import HStreamsCancelled, HStreamsTimedOut
from repro.sim.kernels import dgemm


def sim_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="sim",
                    trace=False, **kw)


def thread_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="thread",
                    trace=False, **kw)


def runtime(backend, **kw):
    return thread_runtime(**kw) if backend == "thread" else sim_runtime(**kw)


def boom(*a):
    raise RuntimeError("kernel exploded")


def register(hs, name, fn):
    """A kernel that runs under both backends (trivial sim cost)."""
    hs.register_kernel(name, fn=fn, cost_fn=lambda *a: dgemm(64, 64, 64))


def arm_failure(hs, kernel, times=1, transient=False):
    """Arm the first execution of ``kernel`` to raise an InjectedFault.

    The sim backend replays a cost model rather than running kernel
    functions, so backend-parametrized failure tests inject their
    faults — the only failure mechanism with identical semantics on
    both backends.
    """
    from repro.core.faults import inject_faults

    return inject_faults(hs, FaultPlan(specs=(
        FaultSpec(kind="compute", kernel=kernel, nth=1, times=times,
                  transient=transient),
    )))


class TestPoison:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_transitive_chain_is_cancelled(self, backend):
        hs = runtime(backend)
        ran = []
        register(hs, "work", lambda x: None)
        register(hs, "step", lambda x: ran.append(1))
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "work", args=(op,))
        evs = [hs.enqueue_compute(s, "step", args=(op,)) for _ in range(3)]
        with pytest.raises(InjectedFault, match="injected fault"):
            hs.thread_synchronize()
        assert ran == []  # no dependent kernel ever executed
        # Events of cancelled actions still fire: host waits never hang.
        assert all(ev.is_complete() for ev in evs)
        m = hs.metrics()["actions"]
        assert m["failed"] == 1
        assert m["cancelled"] == 3
        assert m["completed"] == 0
        states = {r.state for r in hs.metrics()["records"]}
        assert states == {"failed", "cancelled"}
        hs.clear_failure()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_cross_stream_dependent_is_cancelled(self, backend):
        hs = runtime(backend)
        ran = []
        register(hs, "work", lambda x: None)
        register(hs, "consume", lambda x: ran.append(1))
        arm_failure(hs, "work")
        s1 = hs.stream_create(domain=1, ncores=2)
        s2 = hs.stream_create(domain=1, ncores=2)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s1, "work", args=(b1.all_inout(),))
        hs.event_stream_wait(s2, [ev])  # cross-stream ordering edge
        hs.enqueue_compute(s2, "consume", args=(b2.all_inout(),))
        with pytest.raises(InjectedFault, match="injected fault"):
            hs.thread_synchronize()
        assert ran == []
        m = hs.metrics()["actions"]
        assert m["failed"] == 1
        assert m["cancelled"] == 2  # the sync action and the consumer
        hs.clear_failure()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_cancellation_error_names_root_cause(self, backend):
        hs = runtime(backend)
        register(hs, "work", lambda x: None)
        register(hs, "step", lambda x: None)
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "work", args=(op,))
        dep = hs.enqueue_compute(s, "step", args=(op,))
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        assert dep.record.state == "cancelled"
        assert "injected fault" in dep.record.error
        hs.clear_failure()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_enqueue_after_failure_is_poisoned(self, backend):
        hs = runtime(backend)
        ran = []
        register(hs, "work", lambda x: None)
        register(hs, "step", lambda x: ran.append(1))
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "work", args=(op,))
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        # The producer already failed and folded out of the graph, but
        # the new action conflicts with the poisoned footprint: it is
        # cancelled deterministically, not silently run on bad data.
        late = hs.enqueue_compute(s, "step", args=(op,))
        assert late.record.state == "cancelled"
        assert ran == []
        # After acknowledging, the same enqueue runs normally.
        hs.clear_failure()
        ok = hs.enqueue_compute(s, "step", args=(op,))
        hs.thread_synchronize()
        assert ok.record.state == "complete"
        # Only the thread backend executes kernel functions.
        assert ran == ([1] if backend == "thread" else [])
        hs.fini()


class TestErrorAccumulation:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_all_errors_kept_first_raised(self, backend):
        from repro.core.faults import inject_faults

        hs = runtime(backend)
        register(hs, "work_a", lambda x: None)
        register(hs, "work_b", lambda x: None)
        inject_faults(hs, FaultPlan(specs=(
            FaultSpec(kind="compute", kernel="work_a", nth=1,
                      message="failure A"),
            FaultSpec(kind="compute", kernel="work_b", nth=1,
                      message="failure B"),
        )))
        s1 = hs.stream_create(domain=1, ncores=2)
        s2 = hs.stream_create(domain=1, ncores=2)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s1, "work_a", args=(b1.all_inout(),))
        hs.enqueue_compute(s2, "work_b", args=(b2.all_inout(),))
        with pytest.raises(InjectedFault) as exc_info:
            hs.thread_synchronize()
        # Both independent failures were kept, none swallowed; the
        # raised error carries the full ledger.
        assert len(hs.failure_errors()) == 2
        assert exc_info.value.errors == hs.failure_errors()
        assert exc_info.value is hs.failure_errors()[0]
        hs.clear_failure()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_failure_is_sticky_until_cleared(self, backend):
        hs = runtime(backend)
        register(hs, "work", lambda x: None)
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "work", args=(buf.all_inout(),))
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        assert hs.failed
        # Every later synchronization re-raises until acknowledged.
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        with pytest.raises(InjectedFault):
            hs.stream_synchronize(s)
        dropped = hs.clear_failure()
        assert len(dropped) == 1 and not hs.failed
        hs.thread_synchronize()  # clean again
        hs.fini()

    def test_fini_raises_unobserved_failure(self):
        hs = thread_runtime()
        register(hs, "boom", boom)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "boom", args=(buf.all_inout(),))
        with pytest.raises(RuntimeError, match="kernel exploded"):
            hs.fini()  # never synchronized: fini must not swallow it

    def test_fini_suppresses_already_observed_failure(self):
        hs = thread_runtime()
        register(hs, "boom", boom)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "boom", args=(buf.all_inout(),))
        with pytest.raises(RuntimeError):
            hs.thread_synchronize()
        hs.fini()  # handled above: fini in a finally-block is safe


class TestWaitFailureDelivery:
    def test_wait_any_raises_promptly_not_after_slowest(self):
        hs = thread_runtime()
        register(hs, "slow", lambda x: time.sleep(2.0))
        register(hs, "boom", boom)
        s1 = hs.stream_create(domain=1, ncores=2)
        s2 = hs.stream_create(domain=1, ncores=2)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        slow_ev = hs.enqueue_compute(s1, "slow", args=(b1.all_inout(),))
        fail_ev = hs.enqueue_compute(s2, "boom", args=(b2.all_inout(),))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="kernel exploded"):
            hs.event_wait([slow_ev, fail_ev], wait_all=False)
        # The failure surfaced while the slow kernel was still running
        # (the old wait-any loop only polled completion flags and sat on
        # the error until everything drained).
        assert time.monotonic() - t0 < 1.5
        with pytest.raises(RuntimeError):
            hs.thread_synchronize()
        hs.clear_failure()
        hs.fini()

    def test_wait_all_raises_while_spinning(self):
        hs = thread_runtime()
        register(hs, "slow", lambda x: time.sleep(2.0))
        register(hs, "boom", boom)
        s1 = hs.stream_create(domain=1, ncores=2)
        s2 = hs.stream_create(domain=1, ncores=2)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        slow_ev = hs.enqueue_compute(s1, "slow", args=(b1.all_inout(),))
        hs.enqueue_compute(s2, "boom", args=(b2.all_inout(),))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="kernel exploded"):
            slow_ev.wait()  # blocked on the *other* stream's failure
        assert time.monotonic() - t0 < 1.5
        with pytest.raises(RuntimeError):
            hs.thread_synchronize()
        hs.clear_failure()
        hs.fini()


class TestTimeouts:
    def test_thread_event_wait_times_out(self):
        hs = thread_runtime()
        register(hs, "slow", lambda x: time.sleep(0.5))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "slow", args=(buf.all_inout(),))
        with pytest.raises(HStreamsTimedOut):
            ev.wait(timeout=0.05)
        hs.thread_synchronize()  # the action itself still completes
        assert ev.record.state == "complete"
        hs.fini()

    def test_thread_wait_any_times_out(self):
        hs = thread_runtime()
        register(hs, "slow", lambda x: time.sleep(0.5))
        s = hs.stream_create(domain=1, ncores=4)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        e1 = hs.enqueue_compute(s, "slow", args=(b1.all_inout(),))
        e2 = hs.enqueue_compute(s, "slow", args=(b2.all_inout(),))
        with pytest.raises(HStreamsTimedOut):
            hs.event_wait([e1, e2], wait_all=False, timeout=0.05)
        hs.thread_synchronize()
        hs.fini()

    def test_thread_synchronize_times_out(self):
        hs = thread_runtime()
        register(hs, "slow", lambda x: time.sleep(0.5))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "slow", args=(buf.all_inout(),))
        with pytest.raises(HStreamsTimedOut):
            hs.thread_synchronize(timeout=0.05)
        hs.thread_synchronize()
        hs.fini()

    def test_sim_event_wait_times_out_at_virtual_deadline(self):
        hs = sim_runtime()
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 20, domains=[1])
        ev = hs.enqueue_compute(s, "gemm", args=(4096, 4096, 4096, buf.all_inout()))
        with pytest.raises(HStreamsTimedOut):
            ev.wait(timeout=1e-4)
        at_timeout = hs.elapsed()
        hs.thread_synchronize()
        assert ev.record.state == "complete"
        # The full gemm takes far longer than the timeout deadline.
        assert hs.elapsed() > at_timeout
        hs.fini()

    def test_sim_timed_wait_does_not_advance_to_deadline_on_success(self):
        # Regression: the old sim wait ran the engine to the *full*
        # deadline even when the event fired almost immediately,
        # inflating virtual time by the whole timeout.
        hs = sim_runtime()
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 16, domains=[1])
        ev = hs.enqueue_compute(s, "gemm", args=(64, 64, 64, buf.all_inout()))
        ev.wait(timeout=10.0)
        assert ev.is_complete()
        assert hs.elapsed() < 1.0  # nowhere near the 10 s deadline
        hs.fini()

    def test_sim_thread_synchronize_times_out(self):
        hs = sim_runtime()
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 20, domains=[1])
        hs.enqueue_compute(s, "gemm", args=(4096, 4096, 4096, buf.all_inout()))
        with pytest.raises(HStreamsTimedOut):
            hs.thread_synchronize(timeout=1e-4)
        hs.thread_synchronize()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_wait_timeout_config_default_applies(self, backend):
        cfg = RuntimeConfig(wait_timeout_s=1e-4 if backend == "sim" else 0.05)
        hs = runtime(backend, config=cfg)
        if backend == "thread":
            register(hs, "slow", lambda x: time.sleep(0.5))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            ev = hs.enqueue_compute(s, "slow", args=(buf.all_inout(),))
        else:
            hs.register_kernel("slow", cost_fn=lambda *a: dgemm(4096, 4096, 4096))
            s = hs.stream_create(domain=1, ncores=61)
            buf = hs.buffer_create(nbytes=1 << 20, domains=[1])
            ev = hs.enqueue_compute(s, "slow", args=(buf.all_inout(),))
        with pytest.raises(HStreamsTimedOut):
            ev.wait()  # no explicit timeout: the config default applies
        # Draining needs an explicit budget longer than the work.
        hs.thread_synchronize(timeout=10.0 if backend == "sim" else 5.0)
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_action_timeout_fails_the_action(self, backend):
        cfg = RuntimeConfig(action_timeout_s=1e-4 if backend == "sim" else 0.05)
        hs = runtime(backend, config=cfg)
        if backend == "thread":
            register(hs, "slow", lambda x: time.sleep(0.3))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
        else:
            hs.register_kernel("slow", cost_fn=lambda *a: dgemm(4096, 4096, 4096))
            s = hs.stream_create(domain=1, ncores=61)
            buf = hs.buffer_create(nbytes=1 << 20, domains=[1])
        hs.enqueue_compute(s, "slow", args=(buf.all_inout(),))
        with pytest.raises(HStreamsTimedOut, match="action_timeout_s budget"):
            hs.thread_synchronize()
        assert hs.metrics()["actions"]["failed"] == 1
        hs.clear_failure()
        hs.fini()


class TestRetry:
    def test_thread_transient_error_is_retried(self):
        attempts = []

        def flaky(x):
            attempts.append(1)
            if len(attempts) == 1:
                raise mark_transient(RuntimeError("transient glitch"))

        hs = thread_runtime(failure_policy="retry")
        register(hs, "flaky", flaky)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "flaky", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert len(attempts) == 2
        assert ev.record.state == "complete"
        assert ev.record.retries == 1
        m = hs.metrics()["actions"]
        assert m["retried"] == 1 and m["failed"] == 0
        hs.fini()

    def test_retry_limit_exhaustion_poisons(self):
        def always(x):
            raise mark_transient(RuntimeError("never recovers"))

        cfg = RuntimeConfig(retry_limit=2, retry_backoff_s=1e-4)
        hs = thread_runtime(failure_policy="retry", config=cfg)
        register(hs, "always", always)
        register(hs, "step", lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        ev = hs.enqueue_compute(s, "always", args=(op,))
        dep = hs.enqueue_compute(s, "step", args=(op,))
        with pytest.raises(RuntimeError, match="never recovers"):
            hs.thread_synchronize()
        assert ev.record.state == "failed"
        assert ev.record.retries == 2  # the cap, then poison as usual
        assert dep.record.state == "cancelled"
        hs.clear_failure()
        hs.fini()

    def test_non_transient_error_is_not_retried(self):
        hs = thread_runtime(failure_policy="retry")
        register(hs, "boom", boom)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "boom", args=(buf.all_inout(),))
        with pytest.raises(RuntimeError, match="kernel exploded"):
            hs.thread_synchronize()
        assert ev.record.retries == 0
        hs.clear_failure()
        hs.fini()

    def test_backoff_delays_grow_and_cap(self):
        # The sim backend makes the backoff schedule observable in
        # virtual time: attempt k redispatches after
        # min(base * factor**(k-1), cap).
        cfg = RuntimeConfig(retry_backoff_s=0.1, retry_backoff_factor=2.0,
                            retry_backoff_max_s=0.15, retry_limit=3)
        hs = sim_runtime(failure_policy="retry", config=cfg)
        hs.register_kernel("flaky", cost_fn=lambda *a: dgemm(64, 64, 64))
        from repro.core.faults import inject_faults
        inject_faults(hs, FaultPlan(specs=(
            FaultSpec(kind="compute", kernel="flaky", nth=1, times=3,
                      transient=True),
        )))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 16, domains=[1])
        ev = hs.enqueue_compute(s, "flaky", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert ev.record.state == "complete"
        assert ev.record.retries == 3
        # Three backoffs: 0.1 + 0.15 (capped from 0.2) + 0.15 = 0.4 of
        # pure waiting, visible in the virtual clock.
        assert hs.elapsed() >= 0.4
        assert hs.elapsed() < 0.6
        hs.fini()

    def test_retry_backoff_never_dispatches_early(self):
        """Wall-clock backoff honors the sim's virtual schedule.

        The thread backend once trusted a single ``time.sleep(delay)``,
        which may return before the full delay under coarse OS clocks or
        interrupted waits — dispatching a retry early. It now re-checks
        a monotonic deadline and re-arms, so wall time spent backing off
        is always at least the virtual backoff the sim would model.
        """
        cfg = RuntimeConfig(retry_backoff_s=0.04, retry_backoff_factor=2.0,
                            retry_backoff_max_s=1.0, retry_limit=3)
        expected = 0.04 + 0.08  # two transient failures, then success

        hs = sim_runtime(failure_policy="retry", config=cfg)
        register(hs, "flaky", lambda x: None)
        arm_failure(hs, "flaky", times=2, transient=True)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "flaky", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert ev.record.retries == 2
        assert hs.elapsed() >= expected
        hs.fini()

        hs = thread_runtime(failure_policy="retry", config=cfg)
        register(hs, "flaky", lambda x: None)
        arm_failure(hs, "flaky", times=2, transient=True)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        t0 = time.monotonic()
        ev = hs.enqueue_compute(s, "flaky", args=(buf.all_inout(),))
        hs.thread_synchronize()
        wall = time.monotonic() - t0
        assert ev.record.retries == 2
        assert wall >= expected
        hs.fini()


class TestFaultInjection:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_transient_fault_recovers_with_retry(self, backend):
        from repro.core.faults import inject_faults

        hs = runtime(backend, failure_policy="retry")
        register(hs, "work", lambda x: None)
        injector = inject_faults(hs, FaultPlan(specs=(
            FaultSpec(kind="compute", kernel="work", nth=1, times=2,
                      transient=True),
        ), seed=3))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "work", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert ev.record.state == "complete"
        assert ev.record.retries == 2
        assert injector.injected == 2
        assert not hs.failed
        hs.fini()

    def test_backends_report_identical_outcomes(self):
        from repro.core.faults import inject_faults

        def run(backend):
            hs = runtime(backend, failure_policy="retry")
            register(hs, "work", lambda x: None)
            inject_faults(hs, FaultPlan(specs=(
                FaultSpec(kind="compute", kernel="work", nth=2, times=1,
                          transient=True),
            ), seed=11))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            op = buf.all_inout()
            for _ in range(4):
                hs.enqueue_compute(s, "work", args=(op,))
            hs.thread_synchronize()
            m = hs.metrics()["actions"]
            hs.fini()
            return {k: m[k] for k in
                    ("enqueued", "completed", "failed", "cancelled", "retried")}

        assert run("thread") == run("sim")

    def test_permanent_fault_fails_the_run(self):
        from repro.core.faults import inject_faults

        hs = sim_runtime()
        register(hs, "work", lambda x: None)
        inject_faults(hs, FaultPlan(specs=(
            FaultSpec(kind="compute", kernel="work", nth=1),
        )))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "work", args=(buf.all_inout(),))
        with pytest.raises(InjectedFault, match="injected fault"):
            hs.thread_synchronize()
        hs.clear_failure()
        hs.fini()

    def test_rate_mode_is_seed_deterministic(self):
        from repro.core.faults import FaultInjector, inject_faults

        def armed_seqs(seed):
            hs = sim_runtime()
            register(hs, "work", lambda x: None)
            injector = inject_faults(hs, FaultPlan(specs=(
                FaultSpec(kind="compute", rate=0.5, transient=True),
            ), seed=seed))
            assert isinstance(injector, FaultInjector)
            s = hs.stream_create(domain=1, ncores=4)
            bufs = [hs.buffer_create(nbytes=64) for _ in range(16)]
            evs = []
            try:
                for b in bufs:
                    evs.append(hs.enqueue_compute(s, "work", args=(b.all_inout(),)))
                hs.thread_synchronize()
            except InjectedFault:
                pass
            # Seqs are global across runtimes: compare positions, not
            # absolute numbers.
            base = evs[0].action.seq
            armed = sorted(seq - base for seq in injector.armed_seqs())
            hs.clear_failure()
            hs.fini()
            return armed

        assert armed_seqs(42) == armed_seqs(42)
        assert armed_seqs(42) != armed_seqs(43)

    def test_capture_mode_keeps_plans_inert(self):
        from repro.core.capture import capture_session
        from repro.core.faults import inject_faults

        with capture_session() as runtimes:
            hs = HStreams(backend="sim")
            register(hs, "work", lambda x: None)
            inject_faults(hs, FaultPlan(specs=(
                FaultSpec(kind="compute", kernel="work", nth=1),
            )))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            hs.enqueue_compute(s, "work", args=(buf.all_inout(),))
            hs.thread_synchronize()  # nothing executes: nothing injects
        assert len(runtimes) == 1
        assert not hs.failed


class TestLifecycleOrder:
    """Every backend starts an action (start reported, fault check),
    then runs it, and judges its budget from that start: an action
    queued behind another in its stream has not started yet."""

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_injected_fault_waits_for_the_stream(self, backend):
        hs = runtime(backend)
        hs.register_kernel("long", fn=lambda x: time.sleep(0.2),
                           cost_fn=lambda *a: dgemm(2048, 2048, 2048))
        register(hs, "armed", lambda x: None)
        arm_failure(hs, "armed")
        s = hs.stream_create(domain=1, ncores=4)
        first = hs.enqueue_compute(
            s, "long", args=(hs.buffer_create(nbytes=64).all_inout(),))
        armed = hs.enqueue_compute(  # disjoint operands: ready at once
            s, "armed", args=(hs.buffer_create(nbytes=64).all_inout(),))
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        assert armed.record.state == "failed"
        assert armed.record.t_start >= first.record.t_end
        hs.clear_failure()
        hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_budget_excludes_queueing_in_the_stream(self, backend):
        def run(budget):
            hs = runtime(backend, config=RuntimeConfig(action_timeout_s=budget))
            hs.register_kernel("step", fn=lambda x: time.sleep(0.05),
                               cost_fn=lambda *a: dgemm(512, 512, 512))
            s = hs.stream_create(domain=1, ncores=4)
            evs = [
                hs.enqueue_compute(
                    s, "step", args=(hs.buffer_create(nbytes=64).all_inout(),))
                for _ in range(5)
            ]
            hs.thread_synchronize()
            hs.fini()
            return [ev.record for ev in evs]

        if backend == "sim":
            alone = run(None)[0]
            budget = 3 * (alone.t_end - alone.t_start)
        else:
            budget = 0.15
        records = run(budget)
        assert {r.state for r in records} == {"complete"}
        last = records[-1]
        # Queueing plus its own run exceeded the budget; the run alone
        # did not.
        assert last.t_end - last.t_ready > budget


class TestFailFast:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_enqueue_after_failure_raises_original_error(self, backend):
        hs = runtime(backend, failure_policy="fail_fast")
        register(hs, "work", lambda x: None)
        register(hs, "step", lambda x: None)
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        b1 = hs.buffer_create(nbytes=64)
        b2 = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "work", args=(b1.all_inout(),))
        with pytest.raises(InjectedFault, match="injected fault"):
            hs.thread_synchronize()
        # fail_fast rejects *any* new work, even on untouched buffers.
        with pytest.raises(InjectedFault, match="injected fault"):
            hs.enqueue_compute(s, "step", args=(b2.all_inout(),))
        hs.clear_failure()
        ok = hs.enqueue_compute(s, "step", args=(b2.all_inout(),))
        hs.thread_synchronize()
        assert ok.record.state == "complete"
        hs.fini()


class TestMemoryRollback:
    def test_failed_transfer_is_not_trusted_for_elision(self):
        from repro.core.faults import inject_faults

        hs = thread_runtime()
        inject_faults(hs, FaultPlan(specs=(
            FaultSpec(kind="xfer", nth=1),
        )))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=256, domains=[1])
        with pytest.raises(InjectedFault):
            hs.enqueue_xfer(s, buf)
            hs.thread_synchronize()
        hs.clear_failure()
        # The failed transfer's writes were rolled back: the re-issued
        # transfer must really move the bytes, not be elided against a
        # poisoned coherence state.
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        assert hs.metrics()["memory"]["elided_transfers"] == 0
        # A *successful* transfer, by contrast, does enable elision.
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        assert hs.metrics()["memory"]["elided_transfers"] == 1
        hs.fini()

    def test_cancelled_compute_leaves_instance_clean(self):
        hs = thread_runtime()
        register(hs, "boom", boom)
        register(hs, "write", lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=256, domains=[1])
        op = buf.all_inout()
        hs.enqueue_compute(s, "boom", args=(op,))
        hs.enqueue_compute(s, "write", args=(op,))  # will be cancelled
        with pytest.raises(RuntimeError):
            hs.thread_synchronize()
        hs.clear_failure()
        # The cancelled writer never dirtied the instance: evicting it
        # is legal (no unsaved sink-side data to lose).
        hs.buffer_evict(buf, domain=1)
        hs.fini()


class TestDiagnostics:
    def test_online_checker_reports_failed_and_cancelled(self):
        from repro.analysis import attach_checker

        hs = thread_runtime()
        checker = attach_checker(hs)
        register(hs, "boom", boom)
        register(hs, "step", lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "boom", args=(op,))
        hs.enqueue_compute(s, "step", args=(op,))
        with pytest.raises(RuntimeError):
            hs.thread_synchronize()
        hs.clear_failure()
        rules = {d.rule for d in checker.finish()}
        assert "failed-action" in rules
        assert "cancelled-action" in rules
        by_rule = {d.rule: d for d in checker.diagnostics}
        assert "kernel exploded" in by_rule["failed-action"].message
        hs.fini()


class TestCancelledExceptionType:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_cancelled_record_and_exception_shape(self, backend):
        hs = runtime(backend)
        register(hs, "work", lambda x: None)
        register(hs, "step", lambda x: None)
        arm_failure(hs, "work")
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "work", args=(op,))
        hs.enqueue_compute(s, "step", args=(op,))
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        # The ledger holds only the root cause; cancellations are
        # recorded per-action as HStreamsCancelled with __cause__ set.
        assert len(hs.failure_errors()) == 1
        node_errors = [r.error for r in hs.metrics()["records"]
                       if r.state == "cancelled"]
        assert len(node_errors) == 1
        assert HStreamsCancelled.code == "HSTR_RESULT_CANCELLED"
        hs.clear_failure()
        hs.fini()


class TestReducedEdgesCancelTheSameSet:
    """The scheduler wires the transitive reduction of the conflict
    relation; a failure must still cancel exactly what it would with
    every conflicting pair wired (the full-set oracle policy)."""

    def _final_states(self, backend, policy, naive):
        import threading

        from tests.oracle import NaiveRelaxedPolicy

        gate = threading.Event()
        hs = runtime(
            backend,
            failure_policy=policy,
            config=RuntimeConfig(retry_limit=2, retry_backoff_s=1e-4),
        )
        try:
            register(hs, "hold", lambda *a: gate.wait(10.0))
            register(hs, "flaky", lambda *a: None)
            register(hs, "step", lambda *a: None)
            arm_failure(hs, "flaky", transient=(policy == "retry"))
            s = hs.stream_create(domain=1, ncores=4)
            if naive:
                s.window.policy = NaiveRelaxedPolicy()
            a = hs.buffer_create(nbytes=64)
            b = hs.buffer_create(nbytes=64)
            c = hs.buffer_create(nbytes=64)
            rng = a.range
            # Nothing runs until the whole program is admitted: the
            # thread backend parks on the gate, sim waits for the sync.
            hs.enqueue_compute(s, "hold", args=(a.all_inout(),))
            hs.enqueue_compute(s, "flaky", args=(rng(0, 32),))
            hs.enqueue_compute(s, "step", args=(rng(32, 32),))
            hs.enqueue_compute(
                s, "step", args=(a.range(0, 64, OperandMode.IN), b.all_inout())
            )
            hs.enqueue_compute(s, "step", args=(rng(0, 32),))
            hs.enqueue_compute(s, "step", args=(b.range(0, 64, OperandMode.IN),))
            hs.enqueue_compute(s, "step", args=(a.all_inout(),))
            hs.enqueue_compute(s, "step", args=(c.all_inout(),))
            gate.set()
            try:
                hs.thread_synchronize()
            except InjectedFault:
                hs.clear_failure()
            m = hs.metrics()
            records = sorted(m["records"], key=lambda r: r.seq)
            counts = dict(m["actions"])
            edges = counts.pop("dep_edges")
            return [r.state for r in records], counts, edges
        finally:
            gate.set()
            hs.fini()

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    @pytest.mark.parametrize("policy", ["poison", "retry", "fail_fast"])
    def test_same_final_states_as_the_full_edge_set(self, backend, policy):
        states, counts, edges = self._final_states(backend, policy, naive=False)
        full_states, full_counts, full_edges = self._final_states(
            backend, policy, naive=True
        )
        assert states == full_states
        assert counts == full_counts
        assert edges < full_edges  # the program does exercise the cut-off
        if policy == "retry":
            assert set(states) == {"complete"} and counts["retried"] == 1
        else:
            assert states[1] == "failed" and "cancelled" in states
