"""Tests for the memory subsystem: capacity accounting, coherence
states, transfer elision, and pressure-driven eviction."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import HStreams, make_platform
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsBusy,
    HStreamsOutOfMemory,
)
from repro.core.memory import CoherenceState
from repro.sim.kernels import dgemm
from repro.sim.platforms import HSW, KNC_7120A, Platform


def tiny_card_platform(card_mb: float = 8.0, host_mb: float = None) -> Platform:
    """An HSW host with one card holding ``card_mb`` MB of RAM."""
    host = HSW if host_mb is None else replace(HSW, ram_gb=host_mb / 1024.0)
    return Platform(
        name="tiny",
        host=host,
        cards=(replace(KNC_7120A, ram_gb=card_mb / 1024.0),),
    )


MB = 1 << 20


class TestCapacityBoundary:
    def test_exactly_at_capacity_succeeds(self):
        hs = HStreams(platform=tiny_card_platform(8), backend="sim", trace=False)
        buf = hs.buffer_create(nbytes=8 * MB, domains=[1])
        assert buf.instantiated_in(1)
        assert hs.domain(1).allocated_bytes == 8 * MB

    def test_one_byte_over_capacity_raises(self):
        hs = HStreams(platform=tiny_card_platform(8), backend="sim", trace=False)
        with pytest.raises(HStreamsOutOfMemory, match="domain 1"):
            hs.buffer_create(nbytes=8 * MB + 1, domains=[1])

    def test_second_buffer_tips_over(self):
        hs = HStreams(platform=tiny_card_platform(8), backend="sim", trace=False)
        hs.buffer_create(nbytes=6 * MB, domains=[1])
        with pytest.raises(HStreamsOutOfMemory):
            hs.buffer_create(nbytes=3 * MB, domains=[1])

    def test_unknown_eviction_policy_rejected(self):
        with pytest.raises(HStreamsBadArgument, match="eviction policy"):
            HStreams(backend="sim", trace=False, eviction_policy="mru")


class TestWrappedHostArrays:
    def test_wrap_is_not_charged_against_host_capacity(self):
        hs = HStreams(
            platform=tiny_card_platform(8, host_mb=1), backend="sim", trace=False
        )
        # 2 MB of caller memory on a 1 MB "host": wrapping aliases the
        # caller's own allocation, so no capacity is consumed.
        arr = np.zeros(2 * MB, dtype=np.uint8)
        buf = hs.wrap(arr)
        assert buf.instantiated_in(0)
        assert hs.domain(0).allocated_bytes == 0

    def test_plain_buffer_still_charged_on_host(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.buffer_create(nbytes=4 * MB)
        assert hs.domain(0).allocated_bytes == 4 * MB


class TestLruEviction:
    def make(self, **kw):
        hs = HStreams(
            platform=tiny_card_platform(8),
            backend="sim",
            trace=False,
            eviction_policy="lru",
            **kw,
        )
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        return hs

    def test_evicts_least_recently_touched_clean_instance(self):
        hs = self.make()
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=4 * MB, domains=[1], name="a")
        b = hs.buffer_create(nbytes=4 * MB, domains=[1], name="b")
        hs.enqueue_xfer(s, a)  # a is now the more recently touched
        hs.thread_synchronize()
        c = hs.buffer_create(nbytes=4 * MB, domains=[1], name="c")
        assert not b.instantiated_in(1)  # LRU victim
        assert a.instantiated_in(1)
        assert c.instantiated_in(1)
        assert hs.metrics()["memory"]["evictions"]["pressure"] == 1

    def test_refuses_dirty_instances(self):
        hs = self.make()
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=4 * MB, domains=[1], name="a")
        b = hs.buffer_create(nbytes=4 * MB, domains=[1], name="b")
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, a.all_inout()))
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, b.all_inout()))
        hs.thread_synchronize()
        # Both instances hold unretrieved sink results: evicting either
        # would silently drop data, so the pressure path must fail.
        with pytest.raises(HStreamsOutOfMemory):
            hs.buffer_create(nbytes=4 * MB, domains=[1], name="c")
        assert a.instantiated_in(1) and b.instantiated_in(1)
        assert hs.metrics()["memory"]["evictions"]["pressure"] == 0

    def test_refuses_busy_instances(self):
        hs = self.make()
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=4 * MB, domains=[1], name="a")
        b = hs.buffer_create(nbytes=4 * MB, domains=[1], name="b")
        hs.enqueue_xfer(s, a)  # in flight until the next synchronization
        c = hs.buffer_create(nbytes=4 * MB, domains=[1], name="c")
        assert a.instantiated_in(1)  # busy: spared
        assert not b.instantiated_in(1)  # idle: victim
        assert c.instantiated_in(1)
        hs.thread_synchronize()

    def test_dirty_evictable_again_after_retrieve(self):
        hs = self.make()
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=8 * MB, domains=[1], name="a")
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, a.all_inout()))
        hs.thread_synchronize()
        assert hs.memory.state(a, 1) is CoherenceState.DIRTY
        from repro.core.actions import XferDirection

        hs.enqueue_xfer(s, a, XferDirection.SINK_TO_SRC)
        hs.thread_synchronize()
        assert hs.memory.state(a, 1) is CoherenceState.VALID
        b = hs.buffer_create(nbytes=8 * MB, domains=[1], name="b")
        assert not a.instantiated_in(1)  # retrieved result is safe to drop
        assert b.instantiated_in(1)

    def test_manual_policy_still_fails(self):
        hs = HStreams(platform=tiny_card_platform(8), backend="sim", trace=False)
        hs.buffer_create(nbytes=6 * MB, domains=[1])
        with pytest.raises(HStreamsOutOfMemory):
            hs.buffer_create(nbytes=6 * MB, domains=[1])

    @pytest.mark.parametrize("policy, touches", [("lru", 5), ("manual", 0)])
    def test_admission_and_completion_touch_only_for_lru(self, policy, touches):
        # LRU reads last_touch; the manual policy never does, so the
        # manager skips the per-operand touches for it.
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, eviction_policy=policy)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        a = hs.buffer_create(nbytes=MB, domains=[1])
        b = hs.buffer_create(nbytes=MB, domains=[1])
        with hs.scheduler._lock:
            tick = hs.memory._tick
        hs.enqueue_xfer(s, a)  # two touches at admission, one at completion
        hs.enqueue_compute(s, "gemm", args=(64, 64, 64, b.all_inout()))
        hs.thread_synchronize()  # the compute: one at admission, one after
        with hs.scheduler._lock:
            assert hs.memory._tick - tick == touches
            assert (hs.memory.coherence(b).last_touch[1] > tick) == bool(touches)


class TestCoherenceStates:
    def test_invalid_valid_dirty_cycle(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 * MB)
        assert hs.memory.state(buf, 1) is CoherenceState.INVALID
        hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        assert hs.memory.state(buf, 1) is CoherenceState.VALID
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, buf.all_inout()))
        hs.thread_synchronize()
        assert hs.memory.state(buf, 1) is CoherenceState.DIRTY
        hs.buffer_evict(buf, 1)
        assert hs.memory.state(buf, 1) is CoherenceState.INVALID

    def test_first_admission_of_an_unseen_buffer_creates_its_record(self):
        # A buffer the manager never instantiated (built on the proxy
        # space directly) still gets a coherence record when a compute
        # writing it is admitted, and completion commits it.
        from repro.core.actions import Action, ActionKind, OperandMode, XferDirection
        from repro.core.buffer import Buffer

        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = Buffer(hs.proxy_space, nbytes=64)
        op = buf.range(0, 64, OperandMode.OUT)
        hs.scheduler.enqueue(Action(
            kind=ActionKind.COMPUTE, stream=s, operands=(op,), kernel="gemm",
            args=(op,), cost=dgemm(8, 8, 8),
        ))
        assert hs.memory.state(buf, 1) is CoherenceState.INVALID
        # The write left the host copy stale, so the retrieval moves bytes.
        back = hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        assert not back.action.elided
        hs.thread_synchronize()
        assert hs.memory.state(buf, 0) is CoherenceState.VALID
        hs.fini()

    def test_host_instance_of_wrap_is_valid_from_creation(self):
        hs = HStreams(backend="sim", trace=False)
        buf = hs.wrap(np.zeros(64, dtype=np.uint8))
        assert hs.memory.state(buf, 0) is CoherenceState.VALID


class TestTransferElision:
    def sim(self, **kw):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim",
                      trace=False, **kw)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        return hs

    def run_redundant_sends(self, hs):
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=32 * MB)
        for _ in range(4):
            hs.enqueue_xfer(s, buf)
        hs.thread_synchronize()
        recs = [r for r in hs.metrics()["records"] if r.kind == "xfer"]
        return hs.metrics()["memory"], sum(r.exec_time for r in recs)

    def test_redundant_transfers_cost_no_virtual_time(self):
        m_on, xfer_on = self.run_redundant_sends(self.sim())
        m_off, xfer_off = self.run_redundant_sends(
            self.sim(transfer_elision=False)
        )
        assert m_on["elided_transfers"] == 3
        assert m_on["elided_bytes"] == 3 * 32 * MB
        assert m_off["elided_transfers"] == 0
        assert xfer_on < xfer_off / 2  # 1 real transfer vs 4

    def test_write_blocks_elision(self):
        hs = self.sim()
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 * MB)
        hs.enqueue_xfer(s, buf)
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, buf.all_inout()))
        from repro.core.actions import XferDirection

        ev = hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        assert not ev.action.elided  # host copy is stale: must move
        hs.thread_synchronize()
        ev2 = hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
        assert ev2.action.elided  # now the host is current again
        hs.thread_synchronize()

    def test_thread_backend_numerics_identical_with_elision(self):
        def run(elide: bool) -> np.ndarray:
            hs = HStreams(platform=make_platform("HSW", 1), backend="thread",
                          trace=False, transfer_elision=elide)
            hs.register_kernel("scale", fn=lambda x: x.__imul__(3.0))
            s = hs.stream_create(domain=1, ncores=4)
            data = np.arange(128, dtype=np.float64)
            buf = hs.wrap(data)
            from repro.core.actions import XferDirection

            hs.enqueue_xfer(s, buf)
            hs.enqueue_xfer(s, buf)  # redundant: elidable
            hs.enqueue_compute(s, "scale", args=(buf.all_inout(),))
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)  # redundant
            hs.thread_synchronize()
            hs.fini()
            return data

        on, off = run(True), run(False)
        np.testing.assert_array_equal(on, off)
        np.testing.assert_array_equal(on, np.arange(128) * 3.0)

    def test_external_host_write_defeats_elision(self):
        hs = self.sim()
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 * MB)
        hs.enqueue_xfer(s, buf)
        hs.memory.note_external_host_write(buf)
        ev = hs.enqueue_xfer(s, buf)
        assert not ev.action.elided  # the staged bytes must ship
        hs.thread_synchronize()


class TestBufferPoolInterplay:
    def test_eviction_recycles_chunks_through_the_pool(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        a = hs.buffer_create(nbytes=4 * MB, domains=[1])
        before = hs.metrics()["memory"]["pool"]
        assert before["fresh_allocations"] > 0
        hs.buffer_evict(a, 1)  # chunks return to the free list
        hs.buffer_create(nbytes=4 * MB, domains=[1])
        after = hs.metrics()["memory"]["pool"]
        assert after["recycled_allocations"] > before["recycled_allocations"]
        assert after["fresh_allocations"] == before["fresh_allocations"]
        assert 0.0 < after["hit_rate"] <= 1.0

    def test_pool_block_absent_outside_sim(self):
        hs = HStreams(backend="thread", trace=False)
        assert hs.metrics()["memory"]["pool"] is None
        hs.fini()


class TestBusyDestroy:
    def test_sim_destroy_in_flight_raises_busy(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 * MB, domains=[1])
        hs.enqueue_xfer(s, buf)  # enqueued, virtual time not yet run
        with pytest.raises(HStreamsBusy, match="in-flight"):
            hs.buffer_destroy(buf)
        hs.thread_synchronize()
        hs.buffer_destroy(buf)  # drained: destroy is legal now
        assert buf not in hs.buffers

    def test_thread_destroy_in_flight_raises_busy(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="thread",
                      trace=False)
        release = threading.Event()
        hs.register_kernel("hold", fn=lambda x: release.wait(5.0))
        s = hs.stream_create(domain=1, ncores=4)
        buf = hs.buffer_create(nbytes=64)
        hs.enqueue_compute(s, "hold", args=(buf.all_inout(),))
        try:
            with pytest.raises(HStreamsBusy, match="destroy"):
                hs.buffer_destroy(buf)
        finally:
            release.set()
        hs.thread_synchronize()
        hs.buffer_destroy(buf)
        hs.fini()

    def test_destroy_releases_capacity(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        buf = hs.buffer_create(nbytes=4 * MB, domains=[1])
        assert hs.domain(1).allocated_bytes == 4 * MB
        hs.buffer_destroy(buf)
        assert hs.domain(1).allocated_bytes == 0


class TestStreamDestroyObservability:
    def test_destroyed_streams_keep_their_stats_in_metrics(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel("gemm", cost_fn=lambda m, n, k, *a: dgemm(m, n, k))
        s = hs.stream_create(domain=1, ncores=61)
        buf = hs.buffer_create(nbytes=1 * MB)
        hs.enqueue_xfer(s, buf)
        hs.enqueue_compute(s, "gemm", args=(256, 256, 256, buf.all_inout()))
        hs.stream_destroy(s)
        stats = hs.metrics()["streams"][s.id]
        assert stats["destroyed"] is True
        assert stats["enqueued"] == 2
        assert stats["completed"] == 2  # destroy drained the stream first

    def test_live_stream_reports_not_destroyed(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        s = hs.stream_create(domain=1, ncores=61)
        assert hs.metrics()["streams"][s.id]["destroyed"] is False

    def test_capture_records_stream_destroy(self):
        from repro.core.capture import StreamEvent

        hs = HStreams(platform=make_platform("HSW", 1), capture_only=True,
                      trace=False)
        s = hs.stream_create(domain=1, ncores=61)
        hs.stream_destroy(s)
        kinds = [
            e.kind for e in hs.capture.trace if isinstance(e, StreamEvent)
        ]
        assert kinds == ["create", "destroy"]


class TestMemoryMetricsShape:
    def test_memory_block_keys(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        m = hs.metrics()["memory"]
        assert set(m) == {
            "eviction_policy",
            "transfer_elision",
            "elided_transfers",
            "elided_bytes",
            "aliased_transfers",
            "evictions",
            "domains",
            "pool",
        }
        assert m["eviction_policy"] == "manual"
        assert m["transfer_elision"] is True
        assert set(m["domains"]) == {0, 1}
        assert {"allocated_bytes", "capacity_bytes", "instances"} == set(
            m["domains"][1]
        )

    def test_aliased_transfer_counter(self):
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        s0 = hs.stream_create(domain=0, ncores=4)
        buf = hs.buffer_create(nbytes=1 * MB)
        hs.enqueue_xfer(s0, buf)  # host-as-target: aliased, not elided
        hs.thread_synchronize()
        m = hs.metrics()["memory"]
        assert m["aliased_transfers"] == 1
        assert m["elided_transfers"] == 0
