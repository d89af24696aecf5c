"""Property tests: the conflict-indexed scan is a sound edge reduction.

``RelaxedPolicy`` scans a per-buffer conflict index and returns the
transitive reduction of the conflict relation (a predecessor hidden
behind a newer live writer of the same bytes is skipped). The contract
against the full-conflict-set oracle (:mod:`tests.oracle`, the paper's
definition) is, for any sequence of actions, operand footprints,
barriers, and interleaved completions:

* the reduced set is a subset of the oracle's set, and
* every dependence the oracle names is reachable from the action
  through the recorded (reduced) edges of still-live actions.

Three layers of evidence:

* window-level Hypothesis fuzz over random action/operand/barrier/
  completion sequences, both policies on shared actions, each
  completion retiring the action from both windows and drawn only from
  actions whose producers finished (the only order a scheduler
  produces), with the live count and both conflict indexes checked
  after every step;
* backend-level property test — the same random program enqueued twice
  (indexed vs oracle policy) on the thread *and* sim backends, comparing
  the scheduler-observed dependence sets (completions are held off
  during enqueue: blocked kernels on the thread backend, the idle engine
  on sim);
* unit tests that the condition-variable wait paths that replaced the
  old polling loops still surface pending failures and timeouts.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Action, ActionKind, Operand, OperandMode
from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.dependences import RelaxedPolicy, StreamWindow
from repro.core.errors import HStreamsTimedOut
from repro.core.runtime import HStreams
from repro.core.scheduler import SchedulerObserver
from repro.sim.kernels import KernelCost
from tests.oracle import NaiveRelaxedPolicy, assert_reduction, completable

N_BUFFERS = 4
BUF_BYTES = 64


@st.composite
def window_programs(draw):
    """Steps: ("action", operands, barrier) | ("complete", index)."""
    n_steps = draw(st.integers(1, 40))
    steps = []
    n_actions = 0
    for _ in range(n_steps):
        if n_actions and draw(st.integers(0, 3)) == 0:
            steps.append(("complete", draw(st.integers(0, n_actions - 1))))
            continue
        barrier = draw(st.integers(0, 7)) == 0
        operands = []
        if not barrier:
            for _ in range(draw(st.integers(0, 3))):
                buf = draw(st.integers(0, N_BUFFERS - 1))
                offset = draw(st.integers(0, BUF_BYTES - 1))
                length = draw(st.integers(0, BUF_BYTES - offset))
                mode = draw(st.sampled_from(list(OperandMode)))
                operands.append((buf, offset, length, mode))
        steps.append(("action", operands, barrier))
        n_actions += 1
    return steps


class TestIndexedScanEqualsNaiveScan:
    """Window-level fuzz: both policies, same actions, reduced ⊆ naive
    and naive ⊆ closure(reduced)."""

    @settings(max_examples=60, deadline=None)
    @given(steps=window_programs())
    def test_dependence_sets_identical(self, steps):
        space = ProxyAddressSpace()
        buffers = [Buffer(space, nbytes=BUF_BYTES) for _ in range(N_BUFFERS)]
        indexed = StreamWindow(policy=RelaxedPolicy())
        naive = StreamWindow(policy=NaiveRelaxedPolicy())
        actions = []
        index_of = {}
        edges = {}
        live = []
        for step in steps:
            if step[0] == "complete":
                if live:
                    ready = completable(live, edges)
                    done = ready[step[1] % len(ready)]
                    indexed.retire(actions[done])
                    naive.retire(actions[done])
                    live.remove(done)
                self._check_windows(indexed, naive, live)
                continue
            _, operand_specs, barrier = step
            action = Action(
                kind=ActionKind.SYNC if barrier else ActionKind.COMPUTE,
                stream=None,
                operands=tuple(
                    Operand(buffers[b], off, ln, mode)
                    for b, off, ln, mode in operand_specs
                ),
                barrier=barrier,
            )
            reduced = [index_of[a.seq] for a in indexed.deps_for(action)]
            full = [index_of[a.seq] for a in naive.deps_for(action)]
            assert reduced == sorted(reduced)  # enqueue order
            me = len(actions)
            assert_reduction(me, reduced, full, edges, set(live))
            indexed.add(action)
            naive.add(action)
            index_of[action.seq] = me
            actions.append(action)
            live.append(me)
            self._check_windows(indexed, naive, live)
        # Drain: with everything retired, both converge to empty.
        for me in live:
            indexed.retire(actions[me])
            naive.retire(actions[me])
        probe = Action(kind=ActionKind.SYNC, stream=None, barrier=True)
        assert indexed.deps_for(probe) == naive.deps_for(probe) == []
        self._check_windows(indexed, naive, [])

    @staticmethod
    def _check_windows(indexed, naive, live):
        assert indexed.in_flight == len(live)
        assert indexed.check_index() == []
        assert naive.check_index() == []


class _DepRecorder(SchedulerObserver):
    """Record each admission's dependence set, in enqueue order."""

    def __init__(self):
        self.entries = []

    def on_enqueue(self, action, deps, dangling):
        self.entries.append((action.seq, tuple(d.seq for d in deps)))

    def normalized(self):
        """Dep sets as program indices (seqs differ across runs)."""
        index_of = {seq: i for i, (seq, _) in enumerate(self.entries)}
        return [
            tuple(sorted(index_of[s] for s in deps))
            for _, deps in self.entries
        ]


@st.composite
def backend_programs(draw):
    """("compute", buf, off, len, mode) | ("barrier",) steps."""
    n_steps = draw(st.integers(1, 12))
    steps = []
    for _ in range(n_steps):
        if draw(st.integers(0, 5)) == 0:
            steps.append(("barrier",))
            continue
        buf = draw(st.integers(0, 2))
        offset = draw(st.integers(0, BUF_BYTES - 1))
        length = draw(st.integers(0, BUF_BYTES - offset))
        mode = draw(st.sampled_from(list(OperandMode)))
        steps.append(("compute", buf, offset, length, mode))
    return steps


def _run_program(backend, steps, naive):
    """Enqueue ``steps`` with completions held off; return normalized
    dependence sets as observed by the scheduler."""
    gate = threading.Event()
    hs = HStreams(backend=backend, trace=False)
    hs.register_kernel(
        "blk",
        fn=lambda *_args: gate.wait(),
        cost_fn=lambda *_args: KernelCost("blk", flops=1.0, size=1.0),
    )
    try:
        stream = hs.stream_create(domain=0 if backend == "thread" else 1, ncores=1)
        if naive:
            stream.window.policy = NaiveRelaxedPolicy()
        recorder = _DepRecorder()
        with hs.scheduler._lock:
            hs.scheduler.observers.append(recorder)
        buffers = [hs.buffer_create(nbytes=BUF_BYTES) for _ in range(3)]
        sentinel = hs.buffer_create(nbytes=8)
        # Prologue: a blocked compute keeps the window non-empty, so a
        # barrier enqueued early depends on it and cannot complete (and
        # thus retire) while the program is still being enqueued — dep
        # sets stay deterministic and comparable across runs.
        hs.enqueue_compute(stream, "blk", operands=(sentinel.all_out(),))
        for step in steps:
            if step[0] == "barrier":
                hs.event_stream_wait(stream, [])
            else:
                _, buf, offset, length, mode = step
                hs.enqueue_compute(
                    stream, "blk", operands=(buffers[buf].range(offset, length, mode),)
                )
        normalized = recorder.normalized()
        gate.set()
        hs.thread_synchronize(timeout=30.0)
        return normalized
    finally:
        gate.set()
        hs.fini()


def _assert_program_reduced(backend, steps):
    reduced = _run_program(backend, steps, naive=False)
    full = _run_program(backend, steps, naive=True)
    assert len(reduced) == len(full)
    edges = {}
    everything = set(range(len(full)))  # completions are held off
    for i, (got, want) in enumerate(zip(reduced, full)):
        assert_reduction(i, got, want, edges, everything)


class TestBackendLevelEquivalence:
    """Same program, indexed vs oracle policy: the scheduler-observed
    edges are a reduction of the full conflict sets."""

    @settings(max_examples=10, deadline=None)
    @given(steps=backend_programs())
    def test_thread_backend(self, steps):
        _assert_program_reduced("thread", steps)

    @settings(max_examples=10, deadline=None)
    @given(steps=backend_programs())
    def test_sim_backend(self, steps):
        _assert_program_reduced("sim", steps)


class TestConditionVariableWaits:
    """The CV-based wait paths keep the old poll loops' semantics."""

    def _blocked_runtime(self):
        gate = threading.Event()
        hs = HStreams(backend="thread", trace=False)
        hs.register_kernel("blk", fn=lambda *_args: gate.wait())
        hs.register_kernel(
            "boom", fn=lambda *_args: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        return hs, gate

    def test_wait_raises_failure_from_another_stream(self):
        # The awaited event belongs to a blocked action in stream 1; a
        # kernel in stream 2 fails. The CV wait must wake on the failure
        # and raise it promptly — not sit out its full timeout (the old
        # poll loop's behaviour, with the poll latency removed).
        hs, gate = self._blocked_runtime()
        try:
            s1 = hs.stream_create(domain=0, ncores=1)
            s2 = hs.stream_create(domain=0, ncores=1)
            buf = hs.buffer_create(nbytes=8)
            blocked = hs.enqueue_compute(s1, "blk", operands=(buf.all_out(),))
            hs.enqueue_compute(s2, "boom")
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="boom"):
                hs.event_wait([blocked], timeout=30.0)
            assert time.monotonic() - t0 < 10.0
            gate.set()
            hs.clear_failure()
            hs.thread_synchronize(timeout=30.0)
        finally:
            gate.set()
            hs.fini()

    def test_wait_any_raises_failure_too(self):
        hs, gate = self._blocked_runtime()
        try:
            s1 = hs.stream_create(domain=0, ncores=1)
            s2 = hs.stream_create(domain=0, ncores=1)
            buf = hs.buffer_create(nbytes=8)
            blocked = hs.enqueue_compute(s1, "blk", operands=(buf.all_out(),))
            hs.enqueue_compute(s2, "boom")
            with pytest.raises(RuntimeError, match="boom"):
                hs.event_wait([blocked], wait_all=False, timeout=30.0)
            gate.set()
            hs.clear_failure()
            hs.thread_synchronize(timeout=30.0)
        finally:
            gate.set()
            hs.fini()

    def test_wait_timeout_still_raises(self):
        hs, gate = self._blocked_runtime()
        try:
            stream = hs.stream_create(domain=0, ncores=1)
            buf = hs.buffer_create(nbytes=8)
            blocked = hs.enqueue_compute(stream, "blk", operands=(buf.all_out(),))
            with pytest.raises(HStreamsTimedOut):
                hs.event_wait([blocked], timeout=0.2)
            gate.set()
            hs.thread_synchronize(timeout=30.0)
        finally:
            gate.set()
            hs.fini()
