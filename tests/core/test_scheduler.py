"""Tests for the backend-agnostic scheduler core: lifecycle metrics,
executor contract, busy eviction, and wait-any under contention."""

import threading
import time

import numpy as np
import pytest

from repro import (
    HStreams,
    InjectedFault,
    RuntimeConfig,
    XferDirection,
    make_platform,
)
from repro.core.dependences import RelaxedPolicy, StrictFifoPolicy
from repro.core.errors import HStreamsBadArgument, HStreamsBusy
from repro.core.faults import FaultPlan, FaultSpec, inject_faults
from repro.models.cuda_streams import CudaRuntime
from repro.ompss.runtime import OmpSsRuntime
from repro.sim.kernels import dgemm


def sim_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="sim", **kw)


def thread_runtime(**kw):
    return HStreams(platform=make_platform("HSW", 1), backend="thread", **kw)


METRIC_KEYS = {
    "actions",
    "lifecycle",
    "by_kind",
    "streams",
    "namespaces",
    "records",
    "memory",
}


class TestMetricsSim:
    def run_chain(self):
        hs = sim_runtime()
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=1 << 20, domains=[1])
        hs.enqueue_xfer(s, b)
        hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b.all_inout()))
        hs.thread_synchronize()
        return hs, s

    def test_snapshot_structure(self):
        hs, _ = self.run_chain()
        m = hs.metrics()
        # The sim backend additionally reports interconnect counters.
        assert set(m) == METRIC_KEYS | {"fabric"}
        assert m["fabric"]["bytes_moved"] > 0
        assert m["actions"]["enqueued"] == 2
        assert m["actions"]["completed"] == 2
        assert m["actions"]["failed"] == 0
        assert m["actions"]["in_flight"] == 0
        assert len(m["records"]) == 2

    def test_dependent_action_reports_dep_stall(self):
        hs, _ = self.run_chain()
        recs = {r.kind: r for r in hs.metrics()["records"]}
        # The gemm conflicts with the transfer, so it stalls on it in
        # virtual time: ready exactly when the transfer ends.
        assert recs["compute"].dep_stall > 0
        assert recs["compute"].t_ready >= recs["xfer"].t_end
        assert hs.metrics()["lifecycle"]["dep_stall_s"] > 0

    def test_lifecycle_timestamps_ordered(self):
        hs, _ = self.run_chain()
        for r in hs.metrics()["records"]:
            assert r.t_enqueue <= r.t_ready <= r.t_start <= r.t_end
            assert r.state == "complete"

    def test_per_stream_depth_accounting(self):
        hs, s = self.run_chain()
        stats = hs.metrics()["streams"][s.id]
        assert stats["depth"] == 0  # drained
        assert stats["max_depth"] >= 1
        assert stats["enqueued"] == stats["completed"] == 2
        assert stats["lane"] == s.lane

    def test_queue_depth_counters_traced(self):
        hs, s = self.run_chain()
        lanes = hs.tracer.counter_lanes()
        assert f"sched:{s.lane}" in lanes
        series = hs.tracer.counter_series(f"sched:{s.lane}")
        # One sample per enqueue + one per completion, ending at zero.
        assert len(series) == 4
        assert series[-1].value == 0

    def test_by_kind_split(self):
        hs, _ = self.run_chain()
        by_kind = hs.metrics()["by_kind"]
        assert by_kind["compute"]["count"] == 1
        assert by_kind["xfer"]["count"] == 1
        assert by_kind["sync"]["count"] == 0

    def test_metrics_history_bound(self):
        from repro.core.properties import RuntimeConfig

        hs = sim_runtime(config=RuntimeConfig(metrics_history=3), trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=1 << 18, domains=[1])
        for _ in range(8):
            hs.enqueue_compute(s, "gemm", args=(64, 64, 64, b.all_inout()))
        hs.thread_synchronize()
        m = hs.metrics()
        assert len(m["records"]) == 3  # bounded deque keeps the newest
        assert m["actions"]["completed"] == 8  # aggregates are unbounded


class TestMetricsIdentities:
    """The aggregates ``metrics()`` folds at completion agree with each
    other and with the per-action records, on a run that completes,
    fails and cancels actions."""

    def run_mixed(self):
        hs = sim_runtime(
            config=RuntimeConfig(metrics_history=1 << 16),
            failure_policy="poison",
            trace=False,
        )
        cost = lambda m, n, k, *a: dgemm(m, n, k)  # noqa: E731
        hs.register_kernel("gemm", cost_fn=cost)
        hs.register_kernel("bad", cost_fn=cost)
        inject_faults(
            hs, FaultPlan(specs=(FaultSpec(kind="compute", kernel="bad", nth=1),))
        )
        s1 = hs.stream_create(domain=1, ncores=30)
        s2 = hs.stream_create(domain=1, ncores=30)
        b1 = hs.buffer_create(nbytes=1 << 16)
        b2 = hs.buffer_create(nbytes=1 << 16)
        hs.enqueue_xfer(s1, b1)
        failed = hs.enqueue_compute(s1, "bad", args=(64, 64, 64, b1.all_inout()))
        for _ in range(3):
            hs.enqueue_compute(s1, "gemm", args=(64, 64, 64, b1.all_inout()))
        hs.enqueue_xfer(s2, b2)
        for _ in range(4):
            hs.enqueue_compute(s2, "gemm", args=(128, 128, 128, b2.all_inout()))
        hs.event_stream_wait(s2, [failed])
        hs.enqueue_compute(s2, "gemm", args=(64, 64, 64, b2.all_inout()))
        hs.enqueue_xfer(s2, b2, XferDirection.SINK_TO_SRC)
        with pytest.raises(InjectedFault):
            hs.thread_synchronize()
        m = hs.metrics()
        hs.clear_failure()
        hs.fini()
        return m

    def test_counts_stalls_and_records_agree(self):
        m = self.run_mixed()
        actions, records = m["actions"], m["records"]
        terminal = actions["completed"] + actions["failed"] + actions["cancelled"]
        assert actions["completed"] > 0
        assert actions["failed"] == 1
        assert actions["cancelled"] > 0
        assert actions["in_flight"] == 0
        assert terminal == actions["enqueued"] == len(records)
        # Per-stream counts sum to the run's.
        streams = m["streams"].values()
        for key in ("enqueued", "completed", "failed", "cancelled", "retried"):
            assert sum(st[key] for st in streams) == actions[key], key
        # Per-kind counts sum to the terminal total, kind by kind.
        assert sum(row["count"] for row in m["by_kind"].values()) == terminal
        # Lifecycle stalls are the record sums, folded in the same
        # (completion) order, so they match exactly.
        for kind, row in m["by_kind"].items():
            mine = [r for r in records if r.kind == kind]
            assert row["count"] == len(mine)
            assert row["dep_stall_s"] == sum(r.dep_stall for r in mine)
            assert row["exec_s"] == sum(r.exec_time for r in mine)
        for r in records:
            assert r.t_enqueue <= r.t_ready <= r.t_start <= r.t_end, r
        life = m["lifecycle"]
        assert life["dep_stall_s"] > 0 and life["exec_s"] > 0
        assert life["dep_stall_s"] == sum(r.dep_stall for r in records)
        assert life["dispatch_stall_s"] == sum(r.dispatch_stall for r in records)
        assert life["exec_s"] == sum(r.exec_time for r in records)
        for sid, st in m["streams"].items():
            mine = [r for r in records if r.stream_id == sid]
            assert len(mine) == st["enqueued"]
            assert st["dep_stall_s"] == sum(r.dep_stall for r in mine)
            assert st["dispatch_stall_s"] == sum(r.dispatch_stall for r in mine)
            assert st["exec_s"] == sum(r.exec_time for r in mine)
        assert {r.state for r in records} == {"complete", "failed", "cancelled"}


class TestMetricsThread:
    def test_same_structure_as_sim(self):
        hs = thread_runtime(trace=False)
        hs.register_kernel("fill", fn=lambda x: x.fill(1.0))
        s = hs.stream_create(domain=1, ncores=4)
        data = np.zeros(8)
        buf = hs.wrap(data)
        hs.enqueue_xfer(s, buf)
        hs.enqueue_compute(s, "fill", args=(buf.tensor((8,)),))
        hs.thread_synchronize()
        m = hs.metrics()
        assert set(m) == METRIC_KEYS
        assert m["actions"]["completed"] == 2
        for r in m["records"]:
            assert r.t_enqueue <= r.t_ready <= r.t_start <= r.t_end
        hs.fini()

    def test_dep_stall_measured_on_real_chain(self):
        hs = thread_runtime(trace=False)
        hs.register_kernel("slow", fn=lambda x: time.sleep(0.05))
        hs.register_kernel("after", fn=lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "slow", args=(op,))
        ev = hs.enqueue_compute(s, "after", args=(op,))
        hs.thread_synchronize()
        assert ev.record is not None
        assert ev.record.dep_stall >= 0.04  # waited out the sleep
        assert hs.metrics()["lifecycle"]["dep_stall_s"] >= 0.04
        hs.fini()

    def test_completion_event_carries_record(self):
        hs = thread_runtime(trace=False)
        hs.register_kernel("noop", fn=lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "noop", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert ev.record.state == "complete"
        assert ev.record.seq == ev.action.seq
        assert ev.timestamp == ev.record.t_end
        hs.fini()

    def test_action_carries_no_backend_private_state(self):
        hs = thread_runtime(trace=False)
        hs.register_kernel("noop", fn=lambda x: None)
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        ev = hs.enqueue_compute(s, "noop", args=(buf.all_inout(),))
        assert not hasattr(ev.action, "_remaining_deps")
        assert not hasattr(ev.action, "_handle")
        hs.thread_synchronize()
        hs.fini()

    def test_failed_action_poisons_dependents_and_is_recorded(self):
        hs = thread_runtime(trace=False)
        ran = []

        def boom(x):
            raise RuntimeError("kernel exploded")

        hs.register_kernel("boom", fn=boom)
        hs.register_kernel("after", fn=lambda x: ran.append(1))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        op = buf.all_inout()
        hs.enqueue_compute(s, "boom", args=(op,))
        dep = hs.enqueue_compute(s, "after", args=(op,))  # depends on boom
        with pytest.raises(RuntimeError, match="kernel exploded"):
            hs.thread_synchronize()
        # The dependent was cancelled (its event still fires so host
        # waits cannot hang), and its kernel never executed.
        assert dep.is_complete()
        assert ran == []
        m = hs.metrics()
        assert m["actions"]["failed"] == 1
        assert m["actions"]["cancelled"] == 1
        assert m["actions"]["completed"] == 0
        states = sorted(r.state for r in m["records"])
        assert states == ["cancelled", "failed"]
        hs.clear_failure()
        hs.fini()


class TestPolicies:
    def test_strict_flag_selects_strict_policy(self):
        hs = sim_runtime(trace=False)
        relaxed = hs.stream_create(domain=1, ncores=4)
        strict = hs.stream_create(domain=1, ncores=4, strict_fifo=True)
        assert isinstance(relaxed.window.policy, RelaxedPolicy)
        assert isinstance(strict.window.policy, StrictFifoPolicy)

    @staticmethod
    def _compute_then_disjoint_xfer(strict):
        hs = sim_runtime(trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=30, strict_fifo=strict)
        b1 = hs.buffer_create(nbytes=1 << 18, domains=[1])
        b2 = hs.buffer_create(nbytes=1 << 18, domains=[1])
        hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b1.all_inout()))
        hs.enqueue_xfer(s, b2)  # disjoint from the compute's operand
        hs.thread_synchronize()
        recs = sorted(hs.metrics()["records"], key=lambda r: r.seq)
        return recs[0], recs[1]

    def test_strict_stream_serializes_independent_actions_in_sim(self):
        compute, xfer = self._compute_then_disjoint_xfer(strict=True)
        # Disjoint operands, yet strict FIFO: the transfer cannot overtake.
        assert xfer.t_start >= compute.t_end
        assert xfer.dep_stall > 0

    def test_relaxed_stream_overlaps_independent_actions_in_sim(self):
        compute, xfer = self._compute_then_disjoint_xfer(strict=False)
        # Same program under hStreams relaxation: the transfer flows past.
        assert xfer.t_end < compute.t_end

    def test_cross_runtime_event_dependence_rejected(self):
        hs1 = sim_runtime(trace=False)
        hs2 = sim_runtime(trace=False)
        hs1.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s1 = hs1.stream_create(domain=1, ncores=61)
        s2 = hs2.stream_create(domain=1, ncores=61)
        b = hs1.buffer_create(nbytes=1 << 18, domains=[1])
        foreign = hs1.enqueue_compute(s1, "gemm", args=(256, 256, 256, b.all_inout()))
        with pytest.raises(HStreamsBadArgument, match="cross-runtime"):
            hs2.event_stream_wait(s2, [foreign])
        hs1.thread_synchronize()
        # A *completed* foreign event is harmless: nothing to wait for.
        hs2.event_stream_wait(s2, [foreign])
        hs2.thread_synchronize()


class TestBusyEviction:
    def test_sim_evict_in_flight_raises_busy(self):
        hs = sim_runtime(trace=False)
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 20, domains=[1])
        hs.enqueue_xfer(s, buf)  # enqueued, virtual time not yet run
        with pytest.raises(HStreamsBusy, match="in-flight"):
            hs.buffer_evict(buf, 1)
        hs.thread_synchronize()
        hs.buffer_evict(buf, 1)  # drained: eviction is legal now
        assert not buf.instantiated_in(1)

    def test_thread_evict_in_flight_raises_busy(self):
        hs = thread_runtime(trace=False)
        release = threading.Event()
        hs.register_kernel("hold", fn=lambda x: release.wait(5.0))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "hold", args=(buf.all_inout(),))
        try:
            with pytest.raises(HStreamsBusy):
                hs.buffer_evict(buf, 1)
        finally:
            release.set()
        hs.thread_synchronize()
        hs.buffer_evict(buf, 1)
        hs.fini()

    def test_busy_check_scoped_to_domain(self):
        hs = HStreams(platform=make_platform("HSW", 2), backend="sim", trace=False)
        s2 = hs.stream_create(domain=2, ncores=61)
        buf = hs.buffer_create(nbytes=1 << 20, domains=[1, 2])
        hs.enqueue_xfer(s2, buf)  # in flight toward domain 2 only
        hs.buffer_evict(buf, 1)  # domain 1's instance is idle
        assert not buf.instantiated_in(1)
        hs.thread_synchronize()


class TestWaitAnyStress:
    def test_concurrent_wait_any_callers(self):
        """Several host threads wait-any over overlapping event subsets
        while workers complete them out of order."""
        hs = thread_runtime(trace=False)
        hs.register_kernel("nap", fn=lambda x, d: time.sleep(d))
        streams = [hs.stream_create(domain=1, ncores=2) for _ in range(4)]
        bufs = [hs.buffer_create(nbytes=64) for _ in range(4)]
        events = []
        for i in range(24):
            s = streams[i % 4]
            b = bufs[i % 4]
            events.append(
                hs.enqueue_compute(s, "nap", args=(b.all_inout(), 0.001 * (i % 5)))
            )
        failures = []

        def waiter(offset):
            subset = events[offset::3]
            try:
                hs.event_wait(subset, wait_all=False, timeout=30.0)
                if not any(ev.is_complete() for ev in subset):
                    failures.append(f"waiter {offset}: returned with none done")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(f"waiter {offset}: {exc!r}")

        threads = [threading.Thread(target=waiter, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not failures
        hs.thread_synchronize()
        assert all(ev.is_complete() for ev in events)
        hs.fini()


class TestModelPassthroughs:
    def test_cuda_runtime_metrics(self):
        cu = CudaRuntime(backend="sim", trace=False)
        s = cu.stream_create()
        cu.register_kernel("gemm", cost_fn=lambda *a: dgemm(128, 128, 128))
        ptr = cu.malloc(1 << 16)
        cu.launch(s, "gemm", args=(ptr,))
        cu.device_synchronize()
        m = cu.metrics()
        assert set(m) == METRIC_KEYS | {"fabric"}
        assert m["actions"]["completed"] >= 1
        cu.fini()

    def test_ompss_runtime_metrics(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("gemm", cost_fn=lambda *a: dgemm(128, 128, 128))
        r = rt.register(1 << 16)
        rt.task("gemm", ins=[r], outs=[r])
        rt.taskwait(flush=False)
        m = rt.metrics()
        assert set(m) == METRIC_KEYS | {"fabric"}
        assert m["actions"]["completed"] >= 1
        rt.fini()
