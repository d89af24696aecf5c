"""Unit tests for smaller pieces: config validation, error codes,
events, kernel specs, stream invariants, sim-backend accounting."""

import pytest

from repro import HStreams, RuntimeConfig, make_platform
from repro.core import errors
from repro.core.errors import HStreamsBadArgument
from repro.core.runtime import KernelSpec
from repro.core.stream import Stream
from repro.sim.kernels import dgemm


class TestRuntimeConfig:
    def test_defaults_valid(self):
        RuntimeConfig()

    @pytest.mark.parametrize("field", [
        "enqueue_overhead_s", "transfer_overhead_s", "invoke_overhead_s",
        "sync_overhead_s", "alloc_latency_s", "alloc_per_mb_s",
    ])
    def test_negative_overheads_rejected(self, field):
        with pytest.raises(ValueError):
            RuntimeConfig(**{field: -1.0})

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            RuntimeConfig(jitter=-0.1)
        with pytest.raises(ValueError):
            RuntimeConfig(jitter_prob=1.5)
        with pytest.raises(ValueError):
            RuntimeConfig(pool_chunk_bytes=0)

    def test_alloc_cost_formula(self):
        cfg = RuntimeConfig(alloc_latency_s=1e-4, alloc_per_mb_s=1e-5)
        assert cfg.alloc_cost(2 << 20) == pytest.approx(1e-4 + 2e-5)


class TestErrorCodes:
    def test_hierarchy(self):
        assert issubclass(errors.HStreamsTimedOut, errors.HStreamsError)
        assert issubclass(errors.HStreamsOutOfMemory, errors.HStreamsError)

    def test_codes_mirror_hstr_result(self):
        assert errors.HStreamsTimedOut.code == "HSTR_RESULT_TIME_OUT_REACHED"
        assert errors.HStreamsNotFound.code == "HSTR_RESULT_NOT_FOUND"
        assert errors.HStreamsOutOfMemory.code == "HSTR_RESULT_OUT_OF_MEMORY"
        # Every error class carries a distinct code (__all__ also
        # exports the transient-marking helpers, which have none).
        classes = [
            getattr(errors, name)
            for name in errors.__all__
            if isinstance(getattr(errors, name), type)
        ]
        codes = {cls.code for cls in classes}
        assert len(codes) == len(classes)


class TestKernelSpec:
    def test_needs_something(self):
        with pytest.raises(HStreamsBadArgument):
            KernelSpec("empty")

    def test_fn_only_and_cost_only(self):
        KernelSpec("a", fn=lambda: None)
        KernelSpec("b", cost_fn=lambda: None)


class TestStreamInvariants:
    def test_empty_mask_rejected(self):
        with pytest.raises(HStreamsBadArgument):
            Stream(0, 1, ())

    def test_duplicate_cpus_rejected(self):
        with pytest.raises(HStreamsBadArgument):
            Stream(0, 1, (1, 1, 2))

    def test_host_as_target_flag(self):
        assert Stream(0, 0, (0, 1)).host_as_target
        assert not Stream(1, 2, (0, 1)).host_as_target

    def test_lane_and_width(self):
        s = Stream(3, 1, (4, 5, 6), name="mine")
        assert s.width == 3
        assert s.lane == "d1:mine"


class TestEvents:
    def test_wait_and_poll(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="thread", trace=False)
        hs.register_kernel("noop", fn=lambda: None)
        s = hs.stream_create(domain=1, ncores=4)
        ev = hs.enqueue_compute(s, "noop")
        ev.wait()
        assert ev.is_complete()
        assert ev.timestamp is not None
        hs.fini()

    def test_timestamps_order_matches_dependences(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=1 << 20, domains=[1])
        e1 = hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b.all_inout()))
        e2 = hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b.all_inout()))
        hs.thread_synchronize()
        assert e1.timestamp < e2.timestamp


class TestSimBackendAccounting:
    def test_init_cost_counts_card_spawns(self):
        hs = HStreams(platform=make_platform("HSW", 2), backend="sim", trace=False)
        assert hs.backend.init_cost_s == pytest.approx(0.5)  # 2 x 0.25 s

    def test_alloc_blocked_accumulates(self):
        cfg = RuntimeConfig(use_buffer_pool=False)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
        assert hs.backend.alloc_blocked_s == 0.0
        hs.buffer_create(nbytes=8 << 20, domains=[1])
        assert hs.backend.alloc_blocked_s == pytest.approx(cfg.alloc_cost(8 << 20))

    def test_link_accounting_via_fabric(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        s = hs.stream_create(domain=1, ncores=4)
        b = hs.buffer_create(nbytes=1 << 20, domains=[1])
        hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        assert hs.backend.links[1].h2d.bytes_moved == 1 << 20
        assert hs.backend.fabric.dma_count == 1


class TestOpenMPSizedData:
    def test_sized_stand_in_maps_without_real_memory(self):
        from repro.models.openmp import OpenMPRuntime

        class Blob:
            nbytes = 1 << 20

        omp = OpenMPRuntime(platform=make_platform("HSW", 1), backend="sim",
                            spec="4.5", trace=False)
        blob = Blob()
        t0 = omp.elapsed()
        omp.target_enter_data(0, [blob])
        elapsed = omp.elapsed() - t0
        wire = (1 << 20) / 6.8e9
        assert elapsed > wire  # a real transfer happened
        omp.fini()

    def test_same_object_maps_to_same_buffer(self):
        from repro.models.openmp import OpenMPRuntime

        class Blob:
            nbytes = 64

        omp = OpenMPRuntime(backend="sim", trace=False)
        blob = Blob()
        assert omp._buffer_for(blob) is omp._buffer_for(blob)
        omp.fini()


class TestOmpSsCholeskyValidation:
    def test_invalid_n(self):
        from repro.ompss.cholesky import ompss_cholesky

        with pytest.raises(ValueError):
            ompss_cholesky(0)

    def test_small_run_counts_tasks(self):
        from repro.ompss.cholesky import ompss_cholesky

        res = ompss_cholesky(3000, tile=1000)
        # T=3: potrf 3, trsm 3, syrk 3, gemm 1.
        assert res.tasks == 10
        assert res.gflops > 0


class TestStreamDestroy:
    def test_destroy_drains_and_removes(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="thread",
                      trace=False)
        hs.register_kernel("nap", fn=lambda: __import__("time").sleep(0.05))
        s = hs.stream_create(domain=1, ncores=4)
        ev = hs.enqueue_compute(s, "nap")
        hs.stream_destroy(s)  # drains first
        assert ev.is_complete()
        assert s not in hs.streams
        hs.fini()

    def test_double_destroy_raises(self):
        from repro.core.errors import HStreamsNotFound

        hs = HStreams(backend="thread", trace=False)
        s = hs.stream_create(domain=1, ncores=4)
        hs.stream_destroy(s)
        with pytest.raises(HStreamsNotFound):
            hs.stream_destroy(s)
        hs.fini()

    def test_destroy_on_sim_backend(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=1 << 16, domains=[1])
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, b.all_inout()))
        hs.stream_destroy(s)
        assert s not in hs.streams
        # Other streams keep working after a destroy.
        s2 = hs.stream_create(domain=1, ncores=30)
        hs.enqueue_compute(s2, "gemm", args=(256, 256, 256, b.all_inout()))
        hs.thread_synchronize()


class TestReadOnlyBuffers:
    """Paper §II: buffers declare usage properties like read-only."""

    def test_write_operand_rejected(self):
        from repro.core.actions import OperandMode
        from repro.core.errors import HStreamsBadArgument

        hs = HStreams(platform=make_platform("HSW", 1), backend="thread",
                      trace=False)
        hs.register_kernel("k", fn=lambda *a: None)
        s = hs.stream_create(domain=1, ncores=4)
        ro = hs.buffer_create(nbytes=64, read_only=True)
        with pytest.raises(HStreamsBadArgument, match="read-only"):
            hs.enqueue_compute(s, "k", args=(ro.all(OperandMode.OUT),))
        with pytest.raises(HStreamsBadArgument):
            hs.enqueue_compute(s, "k", args=(ro,))  # bare buffer = INOUT
        hs.fini()

    def test_read_operand_allowed(self):
        from repro.core.actions import OperandMode

        hs = HStreams(platform=make_platform("HSW", 1), backend="thread",
                      trace=False)
        hs.register_kernel("k", fn=lambda a: None)
        s = hs.stream_create(domain=1, ncores=4)
        ro = hs.buffer_create(nbytes=64, read_only=True)
        hs.enqueue_compute(s, "k", args=(ro.all(OperandMode.IN),))
        hs.thread_synchronize()
        hs.fini()

    def test_broadcast_input_pattern(self):
        """The matmul's A tiles are the natural read-only citizens:
        transfers still work (they write the *instance*, not the data
        semantics the property protects)."""
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        ro = hs.buffer_create(nbytes=1 << 16, read_only=True)
        s = hs.stream_create(domain=1, ncores=8)
        hs.enqueue_xfer(s, ro)  # broadcasting a read-only buffer is fine
        hs.thread_synchronize()


class TestRuntimeStats:
    def test_counters_track_action_kinds(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s1 = hs.stream_create(domain=1, ncores=30)
        s2 = hs.stream_create(domain=1, ncores=30)
        b = hs.buffer_create(nbytes=1 << 20, domains=[1])
        ev = hs.enqueue_xfer(s1, b)
        hs.enqueue_compute(s1, "gemm", args=(256, 256, 256, b.all_inout()))
        hs.event_stream_wait(s2, [ev])
        hs.thread_synchronize()
        assert hs.stats["computes"] == 1
        assert hs.stats["transfers"] == 1
        assert hs.stats["syncs"] == 1
        assert hs.stats["bytes_transferred"] == 1 << 20
