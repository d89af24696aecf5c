"""rtsan dynamic sanitizer: every rule fires, and disabled mode is a
true passthrough.

The firing tests run the sanitizer in ``record`` mode and assert on the
collected diagnostics (raise mode is covered where the raise itself is
the observable). The passthrough tests assert both the structural
guarantee (plain ``threading`` primitives, no wrappers) and behavioral
equivalence of the wrappers against the stdlib under randomized
interleavings.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HStreams, make_platform
from repro.core.actions import XferDirection
from repro.core.sync import (
    RtsanViolation,
    SanCondition,
    SanLock,
    Sanitizer,
    make_condition,
    make_lock,
    sanitize_mode_from_env,
)
from repro.sim.kernels import dgemm


_open_sanitizers = []


def sanitizer():
    san = Sanitizer(mode="record")
    _open_sanitizers.append(san)
    return san


@pytest.fixture(autouse=True)
def _close_sanitizers():
    """Close every sanitizer a test opened, pass or fail — a leaked one
    keeps the global blocking-call patches installed."""
    yield
    while _open_sanitizers:
        _open_sanitizers.pop().close()


def rules_of(san):
    return [d.rule for d in san.findings()]


class TestPassthrough:
    def test_make_lock_without_sanitizer_is_plain_threading(self):
        lock = make_lock("x")
        rlock = make_lock("x", reentrant=True)
        assert isinstance(lock, type(threading.Lock()))
        assert isinstance(rlock, type(threading.RLock()))

    def test_make_condition_without_sanitizer_is_plain_threading(self):
        cv = make_condition(None, "c")
        assert isinstance(cv, threading.Condition)
        lock = threading.Lock()
        cv2 = make_condition(lock, "c")
        assert cv2._lock is lock

    def test_unsanitized_runtime_uses_plain_primitives(self, monkeypatch):
        # The whole suite may run under REPRO_SANITIZE=1; this test is
        # about the *default* (env-less) construction path.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        try:
            assert hs.sanitizer is None
            assert not isinstance(hs.scheduler._lock, SanLock)
            assert not isinstance(hs.scheduler._idle, SanCondition)
            assert type(hs.scheduler).__name__ == "Scheduler"
            assert not getattr(type(hs.scheduler), "__rtsan_instrumented__", False)
        finally:
            hs.fini()

    def test_sanitized_runtime_instruments_and_close_reverts(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, sanitize=True)
        assert hs.sanitizer is not None
        assert isinstance(hs.scheduler._lock, SanLock)
        assert getattr(type(hs.scheduler), "__rtsan_instrumented__", False)
        hs.fini()
        # close() swapped the original classes back in.
        assert not getattr(type(hs.scheduler), "__rtsan_instrumented__", False)

    def test_env_mode_parsing(self):
        assert sanitize_mode_from_env({}) is None
        assert sanitize_mode_from_env({"REPRO_SANITIZE": "0"}) is None
        assert sanitize_mode_from_env({"REPRO_SANITIZE": "off"}) is None
        assert sanitize_mode_from_env({"REPRO_SANITIZE": "1"}) == "raise"
        assert sanitize_mode_from_env({"REPRO_SANITIZE": "raise"}) == "raise"
        assert sanitize_mode_from_env({"REPRO_SANITIZE": "record"}) == "record"


class TestLockOrderInversion:
    def test_ab_ba_cycle_reported(self):
        san = sanitizer()
        a = make_lock("A", sanitizer=san)
        b = make_lock("B", sanitizer=san)
        with a:
            with b:  # establishes A -> B
                pass
        with b:
            with a:  # inverts: B -> A closes the cycle
                pass
        assert "lock-order-inversion" in rules_of(san)
        msg = san.findings("lock-order-inversion")[0].message
        assert "'A'" in msg and "'B'" in msg
        san.close()

    def test_three_lock_cycle_via_transitive_path(self):
        san = sanitizer()
        a = make_lock("A", sanitizer=san)
        b = make_lock("B", sanitizer=san)
        c = make_lock("C", sanitizer=san)
        with a, b:
            pass  # A -> B
        with b, c:
            pass  # B -> C
        with c, a:
            pass  # C -> A closes A -> B -> C -> A
        assert "lock-order-inversion" in rules_of(san)
        san.close()

    def test_consistent_order_is_clean(self):
        san = sanitizer()
        a = make_lock("A", sanitizer=san)
        b = make_lock("B", sanitizer=san)
        for _ in range(3):
            with a, b:
                pass
        assert san.findings() == []
        san.close()

    def test_nonreentrant_self_reacquire_reported_before_deadlock(self):
        san = sanitizer()
        a = make_lock("A", sanitizer=san)
        san.mode = "raise"
        with a:
            with pytest.raises(RtsanViolation, match="self-deadlock"):
                a.acquire()
        san.close()

    def test_reentrant_self_reacquire_is_legal(self):
        san = sanitizer()
        a = make_lock("A", reentrant=True, sanitizer=san)
        with a:
            with a:
                pass
        assert san.findings() == []
        san.close()


class TestGuardedFields:
    def _widget(self, san):
        from repro.core.sync import guarded_by

        @guarded_by("_lock", "count")
        class Widget:
            def __init__(self, sanitizer):
                self._lock = make_lock("widget", sanitizer=sanitizer)
                self.count = 0

        w = Widget(san)
        san.instrument(w)
        return w

    def test_unguarded_write_reported(self):
        san = sanitizer()
        w = self._widget(san)
        w.count = 1
        assert rules_of(san) == ["unguarded-access"]
        assert "write" in san.findings()[0].message
        san.close()

    def test_unguarded_read_reported(self):
        san = sanitizer()
        w = self._widget(san)
        with w._lock:
            w.count = 1
        _ = w.count
        assert rules_of(san) == ["unguarded-access"]
        assert "read" in san.findings()[0].message
        san.close()

    def test_access_under_lock_is_clean(self):
        san = sanitizer()
        w = self._widget(san)
        with w._lock:
            w.count += 1
            assert w.count == 1
        assert san.findings() == []
        san.close()

    def test_close_reverts_instrumentation(self):
        san = sanitizer()
        w = self._widget(san)
        san.close()
        w.count = 5  # no sanitizer left to object
        assert w.count == 5


class TestConditionDiscipline:
    def test_wait_without_lock_reported(self):
        san = sanitizer()
        lock = make_lock("L", sanitizer=san)
        cv = make_condition(lock, "C")
        # The diagnostic records first; the inner primitive then raises
        # exactly as threading.Condition would (behavioral parity).
        with pytest.raises(RuntimeError, match="un-acquired"):
            cv.wait(timeout=0.001)
        assert "cv-without-lock" in rules_of(san)
        san.close()

    def test_notify_without_lock_reported(self):
        san = sanitizer()
        lock = make_lock("L", sanitizer=san)
        cv = make_condition(lock, "C")
        with pytest.raises(RuntimeError, match="un-acquired"):
            cv.notify()
        assert "cv-without-lock" in rules_of(san)
        san.close()

    def test_wait_notify_under_lock_is_clean(self):
        san = sanitizer()
        lock = make_lock("L", sanitizer=san)
        cv = make_condition(lock, "C")
        hits = []

        def waiter():
            with cv:
                cv.wait_for(lambda: hits, timeout=2.0)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        with cv:
            hits.append(1)
            cv.notify_all()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert san.findings() == []
        san.close()

    def test_wait_restores_held_set(self):
        san = sanitizer()
        lock = make_lock("L", sanitizer=san)
        cv = make_condition(lock, "C")
        with cv:
            cv.wait(timeout=0.01)
            # After a timed-out wait the lock is held again and the
            # bookkeeping agrees.
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()
        assert san.findings() == []
        san.close()


class TestBlockingUnderLock:
    def test_sleep_under_no_block_lock_reported(self):
        san = sanitizer()
        lock = make_lock("sched", no_block=True, sanitizer=san)
        with lock:
            time.sleep(0.001)
        assert "blocking-under-lock" in rules_of(san)
        san.close()

    def test_event_wait_under_no_block_lock_reported(self):
        san = sanitizer()
        lock = make_lock("sched", no_block=True, sanitizer=san)
        ev = threading.Event()
        ev.set()
        with lock:
            ev.wait(timeout=0.001)
        assert "blocking-under-lock" in rules_of(san)
        san.close()

    def test_sleep_under_ordinary_lock_is_clean(self):
        san = sanitizer()
        lock = make_lock("misc", sanitizer=san)
        with lock:
            time.sleep(0.001)
        assert san.findings() == []
        san.close()

    def test_concurrent_release_acquire_keeps_held_set_clean(self):
        # Regression: release() used to drop the raw lock before its
        # bookkeeping, so a thread acquiring in that window made the
        # releaser mis-file the release as cross-thread — leaking a
        # permanent held-set entry that poisoned every later blocking
        # call on that thread with blocking-under-lock.
        san = sanitizer()
        lock = make_lock("sched", no_block=True, sanitizer=san)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                with lock:
                    pass

        threads = [threading.Thread(target=churn, daemon=True) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for _ in range(400):
                with lock:
                    pass
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
        from repro.core.sync import _held_locks

        assert lock not in _held_locks()
        time.sleep(0.001)  # a poisoned held set would report here
        assert rules_of(san) == []
        san.close()

    def test_stale_cross_thread_release_entry_is_pruned(self):
        # A plain Lock may legally be released by another thread; the
        # original holder's held-set entry goes stale and must be
        # pruned by ground truth, not reported as blocking-under-lock.
        san = sanitizer()
        lock = make_lock("gate", no_block=True, sanitizer=san)
        go = threading.Event()
        done = threading.Event()

        def releaser():
            go.wait(timeout=5.0)
            lock.release()
            done.set()

        t = threading.Thread(target=releaser, daemon=True)
        t.start()  # before acquire: Thread.start blocks internally
        lock.acquire()
        go.set()
        # Spin (no patched blocking call) until the cross-thread
        # release lands; main's held-set entry is now stale.
        deadline = time.monotonic() + 5.0
        while not done.is_set() and time.monotonic() < deadline:
            pass
        assert done.is_set()
        t.join(timeout=5.0)
        time.sleep(0.001)
        assert rules_of(san) == []
        from repro.core.sync import _held_locks

        assert lock not in _held_locks()
        san.close()

    def test_patches_are_reverted_after_close(self):
        # Under REPRO_SANITIZE=1 another live sanitized runtime (e.g. a
        # session-scoped fixture elsewhere in the run) may already hold
        # the refcounted patch; open/close must be balanced either way.
        already_patched = "_install_blocking_patches" in time.sleep.__qualname__
        before_sleep = time.sleep
        before_wait = threading.Event.wait
        san = sanitizer()
        if not already_patched:
            assert time.sleep is not before_sleep
            assert threading.Event.wait is not before_wait
        san.close()
        assert time.sleep is before_sleep
        assert threading.Event.wait is before_wait


class TestInvariantViolation:
    def test_corrupted_counter_reported(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, sanitize="record")
        try:
            hs.register_kernel("k", cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            hs.thread_synchronize()
            assert hs.sanitizer.findings() == []
            # Corrupt the outstanding counter; the next transition's
            # deep-check must notice the graph/counter divergence.
            with hs.scheduler._lock:
                hs.scheduler._outstanding += 1
            hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            assert "invariant-violation" in rules_of(hs.sanitizer)
        finally:
            # Un-corrupt so the drain in fini() can reach idle.
            with hs.scheduler._lock:
                hs.scheduler._outstanding -= 1
            hs.fini()

    def test_check_invariants_clean_on_live_runtime(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        try:
            hs.register_kernel("k", cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            for _ in range(8):
                hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            assert hs.scheduler.check_invariants() == []
            hs.thread_synchronize()
            assert hs.scheduler.check_invariants() == []
        finally:
            hs.fini()

    def test_check_invariants_reports_lifecycle_times_out_of_order(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        try:
            hs.register_kernel("k", cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            ev = hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            with hs.scheduler._lock:
                node = hs.scheduler.graph.get(ev.action)
                ready = node.t_ready
                node.t_ready = node.t_enqueue - 1e-6
            problems = hs.scheduler.check_invariants()
            assert len(problems) == 1 and "out of order" in problems[0]
            with hs.scheduler._lock:
                node.t_ready = ready
            assert hs.scheduler.check_invariants() == []
            hs.thread_synchronize()
        finally:
            hs.fini()

    def test_check_invariants_reports_completed_entry_left_in_window(self):
        # A scheduler-owned window's scans never probe completion: the
        # scheduler retires each entry in the lock hold that fires its
        # completion. A fired completion whose entry is still live
        # breaks that, and the deep check must say so.
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        try:
            hs.register_kernel("k", cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            ev = hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            with hs.scheduler._lock:
                hs.backend.signal_completion(ev, 0.0)
            problems = hs.scheduler.check_invariants()
            assert len(problems) == 1
            assert "completed but is still live" in problems[0]
            # Un-fire it (a sim completion with no waiter has no engine
            # event) so the drain can complete the action for real.
            ev.handle = None
            assert hs.scheduler.check_invariants() == []
            hs.thread_synchronize()
        finally:
            hs.fini()

    def test_completed_entry_left_in_window_reported_at_next_transition(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, sanitize="record")
        try:
            hs.register_kernel("k", cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=64)
            other = hs.buffer_create(nbytes=64)
            ev = hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            assert hs.sanitizer.findings() == []
            with hs.scheduler._lock:
                hs.backend.signal_completion(ev, 0.0)
            hs.enqueue_compute(s, "k", args=(other.all_inout(),))
            assert "invariant-violation" in rules_of(hs.sanitizer)
            ev.handle = None
            hs.thread_synchronize()
        finally:
            hs.fini()


class TestSanitizedRuntimeEndToEnd:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_clean_program_stays_clean(self, backend):
        hs = HStreams(platform=make_platform("HSW", 1), backend=backend,
                      trace=False, sanitize=True)
        try:
            hs.register_kernel("k", fn=lambda x: None,
                               cost_fn=lambda *a: dgemm(64, 64, 64))
            s = hs.stream_create(domain=1, ncores=4)
            buf = hs.buffer_create(nbytes=256)
            hs.enqueue_xfer(s, buf)
            hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            hs.enqueue_xfer(s, buf, direction=XferDirection.SINK_TO_SRC)
            hs.thread_synchronize()
            assert hs.sanitizer.findings() == []
            assert hs.metrics()["actions"]["completed"] == 3
        finally:
            hs.fini()

    def test_raise_mode_surfaces_at_call_site(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, sanitize=True)
        try:
            with pytest.raises(RtsanViolation, match="unguarded-access"):
                hs.scheduler._outstanding = 0
        finally:
            hs.fini()


# -- disabled-mode behavioral parity (property-based) ---------------------------

OPS = st.lists(
    st.sampled_from(["acquire", "release", "try_acquire", "timed_acquire"]),
    min_size=1,
    max_size=12,
)


def drive_lock(lock, ops):
    """Apply a scripted op sequence; return (results, final_locked)."""
    out = []
    depth = 0
    for op in ops:
        if op == "acquire":
            if depth:  # would deadlock a plain Lock; skip like-for-like
                continue
            out.append(("acq", lock.acquire()))
            depth += 1
        elif op == "try_acquire":
            got = lock.acquire(False)
            out.append(("try", got))
            if got:
                depth += 1
        elif op == "timed_acquire":
            got = lock.acquire(True, 0.001)
            out.append(("timed", got))
            if got:
                depth += 1
        elif op == "release":
            if depth:
                lock.release()
                depth -= 1
                out.append(("rel", True))
            else:
                try:
                    lock.release()
                    out.append(("rel", True))
                except RuntimeError:
                    out.append(("rel", "error"))
    while depth:
        lock.release()
        depth -= 1
    return out


class TestBehavioralParity:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_sanlock_matches_threading_lock(self, ops):
        san = Sanitizer(mode="record")
        try:
            plain = drive_lock(threading.Lock(), ops)
            wrapped = drive_lock(make_lock("p", sanitizer=san), ops)
            assert plain == wrapped
        finally:
            san.close()

    @settings(max_examples=40, deadline=None)
    @given(
        nwaiters=st.integers(min_value=1, max_value=3),
        prenotify=st.booleans(),
        timeout=st.sampled_from([0.001, 0.05, None]),
    )
    def test_sancondition_matches_threading_condition(
        self, nwaiters, prenotify, timeout
    ):
        """Waiters either all see the flag or all time out — identically
        for threading.Condition and SanCondition."""

        def run(cv):
            flag = []
            results = []
            res_lock = threading.Lock()

            def waiter():
                with cv:
                    ok = cv.wait_for(lambda: bool(flag), timeout=timeout)
                with res_lock:
                    results.append(ok)

            threads = [
                threading.Thread(target=waiter, daemon=True)
                for _ in range(nwaiters)
            ]
            if prenotify:
                with cv:
                    flag.append(1)
                    cv.notify_all()
            for t in threads:
                t.start()
            if not prenotify and timeout is None:
                # Re-notify until every waiter has finished: a single
                # notify_all after a fixed sleep can race a waiter that
                # has not reached wait() yet on a loaded machine.
                deadline = time.monotonic() + 10.0
                while any(t.is_alive() for t in threads):
                    with cv:
                        if not flag:
                            flag.append(1)
                        cv.notify_all()
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.002)
            for t in threads:
                t.join(timeout=5.0)
            assert not any(t.is_alive() for t in threads)
            return sorted(results)

        san = Sanitizer(mode="record")
        try:
            plain = run(threading.Condition())
            wrapped = run(make_condition(None, "c", sanitizer=san))
            if timeout is None or prenotify:
                # Deterministic outcome: all waiters must succeed.
                assert plain == wrapped == [True] * nwaiters
            else:
                # Timing-dependent timeouts: require identical types,
                # not identical draws.
                assert {type(r) for r in plain} == {type(r) for r in wrapped} == {bool}
            assert san.findings() == []
        finally:
            san.close()
