"""Integration tests: the hStreams runtime on the sim backend.

These verify virtual-time behaviour: pipelining, out-of-order execution,
overheads, allocation costs, determinism.
"""

import pytest

from repro import HStreams, RuntimeConfig, XferDirection, make_platform
from repro.core.errors import HStreamsBadArgument, HStreamsTimedOut
from repro.sim.kernels import KernelCost, dgemm


def fixed_cost(seconds_at_knc: float) -> KernelCost:
    """A cost that takes ~`seconds` on one full KNC (1298 GF/s peak).

    Uses a flat default curve; exact rate doesn't matter for ordering
    tests, only relative magnitudes.
    """
    # default curve eff ~0.45 at huge size on KNC; pick flops accordingly.
    return KernelCost("default", flops=seconds_at_knc * 0.45 * 1298.1e9, size=1e9)


@pytest.fixture()
def hs():
    runtime = HStreams(
        platform=make_platform("HSW", ncards=2),
        backend="sim",
        config=RuntimeConfig(),
    )
    yield runtime


class TestVirtualTime:
    def test_clock_starts_at_zero(self, hs):
        assert hs.elapsed() == pytest.approx(0.0)

    def test_enqueue_advances_clock_by_overhead(self, hs):
        s = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=1024, domains=[1])
        before = hs.elapsed()
        hs.enqueue_xfer(s, b)
        after = hs.elapsed()
        assert after - before == pytest.approx(hs.config.enqueue_overhead_s)

    def test_transfer_time_matches_link_model(self, hs):
        s = hs.stream_create(domain=1, ncores=61)
        nbytes = 64 << 20
        b = hs.buffer_create(nbytes=nbytes, domains=[1])
        t0 = hs.elapsed()
        hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        elapsed = hs.elapsed() - t0
        wire = nbytes / (6.8e9) + hs.platform.pcie_latency_s
        assert elapsed == pytest.approx(
            wire + hs.config.transfer_overhead_s, rel=0.05, abs=5e-5
        )

    def test_compute_time_scales_with_stream_width(self, hs):
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        full = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=8 * 2048 * 2048, domains=[1])
        t0 = hs.elapsed()
        hs.enqueue_compute(full, "gemm", args=(2048, 2048, 2048, b.all_inout()))
        hs.thread_synchronize()
        t_full = hs.elapsed() - t0

        half = hs.stream_create(domain=2, ncores=30)
        b2 = hs.buffer_create(nbytes=8 * 2048 * 2048, domains=[2])
        t1 = hs.elapsed()
        hs.enqueue_compute(half, "gemm", args=(2048, 2048, 2048, b2.all_inout()))
        hs.thread_synchronize()
        t_half = hs.elapsed() - t1
        assert t_half / t_full == pytest.approx(61 / 30, rel=0.05)

    def test_determinism(self):
        def run():
            hs = HStreams(
                platform=make_platform("HSW", 1), backend="sim", trace=False
            )
            hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
            streams = [hs.stream_create(domain=1, ncores=15) for _ in range(4)]
            bufs = [hs.buffer_create(nbytes=1 << 20, domains=[1]) for _ in range(4)]
            for s, b in zip(streams, bufs):
                hs.enqueue_xfer(s, b)
                hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b.all_inout()))
                hs.enqueue_xfer(s, b, XferDirection.SINK_TO_SRC)
            hs.thread_synchronize()
            return hs.elapsed()

        assert run() == run()


class TestPipelining:
    """The core value proposition: transfers hide under compute."""

    def _tile_pipeline(self, overlap: bool) -> float:
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim")
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        ntiles, tile = 8, 1500
        nbytes = 8 * tile * tile
        bufs = [hs.buffer_create(nbytes=nbytes, domains=[1]) for _ in range(ntiles)]
        t0 = hs.elapsed()
        for b in bufs:
            ev = hs.enqueue_xfer(s, b)
            hs.enqueue_compute(s, "gemm", args=(tile, tile, tile, b.all_inout()))
            if not overlap:
                hs.event_wait([ev])  # serialize, defeating the pipeline
                hs.stream_synchronize(s)
        hs.thread_synchronize()
        return hs.elapsed() - t0

    def test_overlap_beats_serialized(self):
        assert self._tile_pipeline(True) < 0.95 * self._tile_pipeline(False)

    def test_transfers_overlap_compute_in_trace(self, hs):
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        bufs = [hs.buffer_create(nbytes=8 * 1500 * 1500, domains=[1]) for _ in range(4)]
        for b in bufs:
            hs.enqueue_xfer(s, b)
            hs.enqueue_compute(s, "gemm", args=(1500, 1500, 1500, b.all_inout()))
        hs.thread_synchronize()
        assert hs.tracer.overlap("compute", "transfer") > 0

    def test_out_of_order_transfer_overtakes_blocked_compute(self, hs):
        """Paper §II example: task A computes; the transfer for independent
        task B proceeds concurrently with A."""
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(1.0))
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=1024, domains=[1])
        b = hs.buffer_create(nbytes=1024, domains=[1])
        ev_a = hs.enqueue_compute(s, "big", args=(a.all_inout(),))
        ev_b = hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        assert ev_b.timestamp < ev_a.timestamp

    def test_strict_fifo_blocks_overtaking(self, hs):
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(1.0))
        s = hs.stream_create(domain=1, ncores=61, strict_fifo=True)
        a = hs.buffer_create(nbytes=1024, domains=[1])
        b = hs.buffer_create(nbytes=1024, domains=[1])
        ev_a = hs.enqueue_compute(s, "big", args=(a.all_inout(),))
        ev_b = hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        assert ev_b.timestamp >= ev_a.timestamp

    def test_conflicting_transfer_waits_for_compute(self, hs):
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(0.5))
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=1024, domains=[1])
        ev_a = hs.enqueue_compute(s, "big", args=(a.all_inout(),))
        ev_x = hs.enqueue_xfer(s, a, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()
        assert ev_x.timestamp >= ev_a.timestamp

    def test_two_streams_compute_concurrently(self, hs):
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(1.0))
        s1 = hs.stream_create(domain=1, ncores=30)
        s2 = hs.stream_create(domain=1, ncores=30)
        b1 = hs.buffer_create(nbytes=1024, domains=[1])
        b2 = hs.buffer_create(nbytes=1024, domains=[1])
        t0 = hs.elapsed()
        hs.enqueue_compute(s1, "big", args=(b1.all_inout(),))
        hs.enqueue_compute(s2, "big", args=(b2.all_inout(),))
        hs.thread_synchronize()
        span = hs.elapsed() - t0
        # Each task takes ~2s on 30 cores; concurrent streams keep the
        # total near one task, not two.
        single = 1.0 * (61 / 30)
        assert span < 1.3 * single

    def test_same_stream_computes_serialize(self, hs):
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(1.0))
        s = hs.stream_create(domain=1, ncores=61)
        b1 = hs.buffer_create(nbytes=1024, domains=[1])
        b2 = hs.buffer_create(nbytes=1024, domains=[1])
        t0 = hs.elapsed()
        hs.enqueue_compute(s, "big", args=(b1.all_inout(),))
        hs.enqueue_compute(s, "big", args=(b2.all_inout(),))  # independent...
        hs.thread_synchronize()
        span = hs.elapsed() - t0
        # ...but the stream's sink runs one task at a time.
        assert span > 1.8


class TestHostAsTarget:
    def test_host_transfer_is_free(self, hs):
        s = hs.stream_create(domain=0, ncores=14)
        b = hs.buffer_create(nbytes=64 << 20)
        t0 = hs.elapsed()
        hs.enqueue_xfer(s, b)
        hs.thread_synchronize()
        # Only enqueue + sync overheads; no wire time.
        assert hs.elapsed() - t0 < 1e-4

    def test_host_compute_uses_host_rates(self, hs):
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=0, ncores=28)
        b = hs.buffer_create(nbytes=8 * 4000 * 4000)
        t0 = hs.elapsed()
        hs.enqueue_compute(s, "gemm", args=(4000, 4000, 4000, b.all_inout()))
        hs.thread_synchronize()
        rate = 2 * 4000**3 / (hs.elapsed() - t0) / 1e9
        assert 700 < rate < 910  # approaching HSW's 902 asymptote


class TestAllocationCosts:
    def test_card_alloc_blocks_host(self):
        cfg = RuntimeConfig(use_buffer_pool=False)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
        t0 = hs.elapsed()
        hs.buffer_create(nbytes=4 << 20, domains=[1])
        blocked = hs.elapsed() - t0
        assert blocked == pytest.approx(cfg.alloc_cost(4 << 20))

    def test_buffer_pool_amortizes_realloc(self):
        cfg = RuntimeConfig(use_buffer_pool=True)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
        b1 = hs.buffer_create(nbytes=4 << 20, domains=[1])
        hs.buffer_destroy(b1)
        t0 = hs.elapsed()
        hs.buffer_create(nbytes=4 << 20, domains=[1])  # recycled chunks
        assert hs.elapsed() - t0 == pytest.approx(0.0)

    def test_no_pool_means_realloc_pays_again(self):
        cfg = RuntimeConfig(use_buffer_pool=False)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
        b1 = hs.buffer_create(nbytes=4 << 20, domains=[1])
        hs.buffer_destroy(b1)
        t0 = hs.elapsed()
        hs.buffer_create(nbytes=4 << 20, domains=[1])
        assert hs.elapsed() - t0 == pytest.approx(cfg.alloc_cost(4 << 20))

    def test_host_alloc_is_free(self, hs):
        t0 = hs.elapsed()
        hs.buffer_create(nbytes=64 << 20)
        assert hs.elapsed() - t0 == pytest.approx(0.0)


class TestSimErrors:
    def test_compute_without_cost_raises(self, hs):
        hs.register_kernel("nocost", fn=lambda: None)
        s = hs.stream_create(domain=1, ncores=4)
        hs.enqueue_compute(s, "nocost")
        with pytest.raises(HStreamsBadArgument):
            hs.thread_synchronize()

    def test_virtual_timeout(self, hs):
        hs.register_kernel("big", cost_fn=lambda *a: fixed_cost(10.0))
        s = hs.stream_create(domain=1, ncores=61)
        b = hs.buffer_create(nbytes=8, domains=[1])
        ev = hs.enqueue_compute(s, "big", args=(b.all_inout(),))
        with pytest.raises(HStreamsTimedOut):
            hs.event_wait([ev], timeout=0.5)


class TestJitter:
    def test_jitter_is_deterministic_per_seed(self):
        def run(seed):
            cfg = RuntimeConfig(jitter=0.5, jitter_prob=0.5, seed=seed)
            hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
            hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
            s = hs.stream_create(domain=1, ncores=61)
            b = hs.buffer_create(nbytes=1 << 20, domains=[1])
            for _ in range(10):
                hs.enqueue_compute(s, "gemm", args=(512, 512, 512, b.all_inout()))
            hs.thread_synchronize()
            return hs.elapsed()

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_jitter_only_slows(self):
        def run(jitter):
            cfg = RuntimeConfig(jitter=jitter, jitter_prob=1.0, seed=3)
            hs = HStreams(platform=make_platform("HSW", 1), backend="sim", config=cfg)
            hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
            s = hs.stream_create(domain=1, ncores=61)
            b = hs.buffer_create(nbytes=1 << 20, domains=[1])
            hs.enqueue_compute(s, "gemm", args=(1024, 1024, 1024, b.all_inout()))
            hs.thread_synchronize()
            return hs.elapsed()

        assert run(0.5) > run(0.0)


class TestCompletionHandles:
    """A sim completion's engine event is made only for a host wait."""

    def test_handle_made_on_demand(self, hs):
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=1024, domains=[1])
        b = hs.buffer_create(nbytes=1024, domains=[1])
        waited = hs.enqueue_xfer(s, a)
        unwaited = hs.enqueue_xfer(s, b)
        assert waited.handle is None and unwaited.handle is None
        assert not waited.is_complete()
        hs.event_wait([waited])  # creates the engine event, then fires it
        assert waited.handle is not None and waited.is_complete()
        hs.thread_synchronize()
        # Completed with nobody waiting: the shared fired handle, which
        # a later wait accepts at once.
        assert unwaited.is_complete()
        assert unwaited.handle is not None and unwaited.handle.triggered
        hs.event_wait([unwaited, waited])
