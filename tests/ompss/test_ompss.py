"""Tests for the OmpSs task-dataflow layer."""

import time

import numpy as np
import pytest

from repro import make_platform
from repro.ompss import OmpSsConfig, OmpSsRuntime
from repro.sim.kernels import KernelCost, dgemm


def big_cost(seconds: float) -> KernelCost:
    return KernelCost("default", flops=seconds * 0.45 * 1298.1e9, size=1e9)


@pytest.fixture()
def ompss():
    return OmpSsRuntime(model="hstreams", platform=make_platform("HSW", 1), backend="sim")


class TestConfig:
    def test_bad_model(self):
        with pytest.raises(ValueError):
            OmpSsRuntime(model="sycl")

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            OmpSsConfig(schedule="random")

    def test_bad_nstreams(self):
        with pytest.raises(ValueError):
            OmpSsConfig(nstreams=0)

    def test_buffer_pool_disabled_by_default(self, ompss):
        """The paper's OmpSs configuration ran without the COI pool."""
        assert not ompss.hstreams.config.use_buffer_pool


class TestDataManagement:
    def test_register_by_array_is_idempotent(self, ompss):
        a = np.zeros(64)
        r1 = ompss.register(a)
        r2 = ompss.register(a)
        assert r1 is r2

    def test_register_by_size(self, ompss):
        r = ompss.register(1 << 20, name="blob")
        assert r.nbytes == 1 << 20 and r.array is None

    def test_initial_validity_is_host_only(self, ompss):
        r = ompss.register(64)
        assert r.valid == {0}

    def test_automatic_h2d_transfer_on_first_read(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(1 << 20)
        ompss.task("k", ins=[r])
        assert ompss.stats["transfers"] == 1
        assert 1 in r.valid

    def test_no_redundant_transfers(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(1 << 20)
        ompss.task("k", ins=[r])
        ompss.task("k", ins=[r])  # already valid on device
        assert ompss.stats["transfers"] == 1

    def test_write_invalidates_host_copy(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(1 << 20)
        ompss.task("k", outs=[r])
        assert r.valid == {1}

    def test_taskwait_flushes_dirty_data_home(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(1 << 20)
        ompss.task("k", outs=[r])
        ompss.taskwait()
        assert 0 in r.valid

    def test_taskwait_without_flush(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(1 << 20)
        ompss.task("k", outs=[r])
        before = ompss.stats["transfers"]
        ompss.taskwait(flush=False)
        assert ompss.stats["transfers"] == before
        assert r.valid == {1}


class TestDependences:
    def test_raw_dependence_orders_tasks(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.1))
        r = ompss.register(1 << 10)
        t1 = ompss.task("k", outs=[r])
        t2 = ompss.task("k", ins=[r])
        ompss.taskwait()
        assert t2.event.timestamp >= t1.event.timestamp

    def test_war_dependence_orders_tasks(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.1))
        r = ompss.register(1 << 10)
        t_read = ompss.task("k", ins=[r])
        t_write = ompss.task("k", outs=[r])
        ompss.taskwait()
        assert t_write.event.timestamp >= t_read.event.timestamp

    def test_independent_tasks_run_concurrently(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.4))
        regions = [ompss.register(1 << 10) for _ in range(4)]
        t0 = ompss.elapsed()
        for r in regions:
            ompss.task("k", inouts=[r])
        ompss.taskwait()
        span = ompss.elapsed() - t0
        # 4 tasks, 4 streams of 15 cores each: ~4x task time on a quarter
        # device each, concurrent -> far less than serialized full-width.
        serial_full_width = 4 * 0.4
        assert span < 1.5 * serial_full_width

    def test_dep_edge_stats(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = ompss.register(64)
        ompss.task("k", outs=[r])
        ompss.task("k", ins=[r])
        assert ompss.stats["dep_edges"] >= 1


class TestScheduling:
    def test_round_robin_spreads(self):
        rt = OmpSsRuntime(
            model="hstreams",
            backend="sim",
            config=OmpSsConfig(schedule="round_robin", nstreams=3),
        )
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.01))
        handles = [rt.task("k", inouts=[rt.register(64)]) for _ in range(6)]
        assert [h.stream_index for h in handles] == [0, 1, 2, 0, 1, 2]

    def test_locality_follows_the_producer(self, ompss):
        ompss.register_kernel("k", cost_fn=lambda *a: big_cost(0.02))
        r = ompss.register(1 << 20)
        t1 = ompss.task("k", outs=[r])
        t2 = ompss.task("k", ins=[r])
        assert t2.stream_index == t1.stream_index


class TestFunctionalThreadBackend:
    def test_dataflow_chain_executes_correctly(self):
        rt = OmpSsRuntime(
            model="hstreams",
            platform=make_platform("HSW", 1),
            backend="thread",
            trace=False,
        )
        rt.register_kernel("init", fn=lambda x: x.fill(2.0))
        rt.register_kernel("sq", fn=lambda x: np.multiply(x, x, out=x))
        data = np.zeros(16)
        rt.task("init", args=(data,), outs=[data])
        rt.task("sq", args=(data,), inouts=[data])
        rt.taskwait()
        np.testing.assert_array_equal(data, 4.0 * np.ones(16))
        rt.fini()

    def test_cuda_model_dataflow_chain(self):
        rt = OmpSsRuntime(
            model="cuda",
            platform=make_platform("HSW", 1),
            backend="thread",
            trace=False,
        )
        rt.register_kernel("init", fn=lambda x: x.fill(3.0))
        rt.register_kernel("inc", fn=lambda x: np.add(x, 1.0, out=x))
        data = np.zeros(8)
        rt.task("init", args=(data,), outs=[data])
        rt.task("inc", args=(data,), inouts=[data])
        rt.taskwait()
        np.testing.assert_array_equal(data, 4.0 * np.ones(8))
        rt.fini()


class TestCudaVsHStreams:
    """The paper's §IV comparison: hStreams beats CUDA Streams under OmpSs."""

    def _matmul(self, model: str, n: int = 4096, tiles: int = 4) -> float:
        rt = OmpSsRuntime(
            model=model, platform=make_platform("HSW", 1), backend="sim", trace=False
        )
        rt.register_kernel("gemm", cost_fn=lambda m, nn, k, *a: dgemm(m, nn, k))
        b = n // tiles
        t0 = rt.elapsed()  # before registration: CUDA's eager mallocs count
        A = [[rt.register(8 * b * b, name=f"A{i}{j}") for j in range(tiles)] for i in range(tiles)]
        B = [[rt.register(8 * b * b, name=f"B{i}{j}") for j in range(tiles)] for i in range(tiles)]
        C = [[rt.register(8 * b * b, name=f"C{i}{j}") for j in range(tiles)] for i in range(tiles)]
        for i in range(tiles):
            for j in range(tiles):
                for k in range(tiles):
                    rt.task(
                        "gemm",
                        args=(b, b, b),
                        ins=[A[i][k], B[k][j]],
                        inouts=[C[i][j]],
                    )
        rt.taskwait()
        return rt.elapsed() - t0

    def test_hstreams_layer_is_faster(self):
        t_h = self._matmul("hstreams")
        t_c = self._matmul("cuda")
        assert t_h < t_c

    def test_stats_show_more_sync_burden_on_cuda(self):
        for model in ("hstreams", "cuda"):
            rt = OmpSsRuntime(model=model, backend="sim", trace=False)
            rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.01))
            r = rt.register(1 << 16)
            rt.task("k", outs=[r])
            rt.task("k", ins=[r])
            rt.taskwait()


class TestSmpHostTasks:
    """OmpSs SMP tasks (device="host") — used by the Cholesky port."""

    def test_host_task_runs_on_host_stream(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = rt.register(1 << 16)
        h = rt.task("k", inouts=[r], device="host")
        assert h.stream_index == -1
        rt.taskwait()
        assert r.valid == {0}

    def test_host_task_pulls_dirty_data_home(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = rt.register(1 << 20)
        rt.task("k", outs=[r])  # card writes
        before = rt.stats["transfers"]
        rt.task("k", ins=[r], device="host")  # host reads -> d2h
        assert rt.stats["transfers"] == before + 1
        rt.taskwait()

    def test_card_task_after_host_write_transfers_back(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = rt.register(1 << 20)
        rt.task("k", outs=[r], device="host")
        before = rt.stats["transfers"]
        rt.task("k", ins=[r])  # card reads -> h2d
        assert rt.stats["transfers"] == before + 1
        rt.taskwait()

    def test_host_and_card_chain_is_ordered(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.1))
        r = rt.register(1 << 16)
        t1 = rt.task("k", outs=[r], device="host")
        t2 = rt.task("k", inouts=[r])
        t3 = rt.task("k", ins=[r], device="host")
        rt.taskwait()
        assert t1.event.timestamp <= t2.event.timestamp <= t3.event.timestamp

    def test_cuda_layer_rejects_host_tasks(self):
        rt = OmpSsRuntime(model="cuda", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = rt.register(64)
        with pytest.raises(ValueError, match="SMP"):
            rt.task("k", inouts=[r], device="host")

    def test_bad_device_rejected(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        with pytest.raises(ValueError):
            rt.task("k", inouts=[rt.register(8)], device="fpga")

    def test_functional_host_task_on_thread_backend(self):
        rt = OmpSsRuntime(model="hstreams", platform=make_platform("HSW", 1),
                          backend="thread", trace=False)
        rt.register_kernel("init", fn=lambda x: x.fill(5.0))
        rt.register_kernel("neg", fn=lambda x: np.negative(x, out=x))
        data = np.zeros(8)
        rt.task("init", args=(data,), outs=[data])              # card
        rt.task("neg", args=(data,), inouts=[data], device="host")  # host
        rt.taskwait()
        np.testing.assert_array_equal(data, -5.0 * np.ones(8))
        rt.fini()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_host_task_waits_for_the_copy_back(self, backend, monkeypatch):
        # The host kernel must see the card's bytes and must not be
        # overwritten by a late d2h. Waiting on the producer compute
        # alone passes only while the copy happens to win the race;
        # a slow copy exposes it (the host kernel negates zeros, then
        # the d2h lands 5.0 on top).
        copyto = np.copyto

        def slow_copyto(dst, src, *args, **kwargs):
            time.sleep(0.02)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", slow_copyto)
        rt = OmpSsRuntime(model="hstreams", platform=make_platform("HSW", 1),
                          backend=backend, trace=False)
        rt.register_kernel("init", fn=lambda x: x.fill(5.0))
        rt.register_kernel("neg", fn=lambda x: np.negative(x, out=x))
        data = np.zeros(8)
        rt.task("init", args=(data,), outs=[data])
        rt.task("neg", args=(data,), inouts=[data], device="host")
        rt.taskwait()
        np.testing.assert_array_equal(data, -5.0 * np.ones(8))
        rt.fini()

    def test_host_task_starts_after_the_copy_back_in_virtual_time(self):
        rt = OmpSsRuntime(model="hstreams", backend="sim", trace=False)
        rt.register_kernel("k", cost_fn=lambda *a: big_cost(0.05))
        r = rt.register(64 << 20)  # a copy long enough to matter
        rt.task("k", outs=[r])
        host = rt.task("k", ins=[r], device="host")
        rt.taskwait()
        records = rt.metrics()["records"]
        (d2h,) = [x for x in records if x.kind == "xfer" and x.label.startswith("from(")]
        assert d2h.t_end > d2h.t_start
        assert host.event.record.t_start >= d2h.t_end
