"""Tests for the OpenCL comparator model."""

import numpy as np
import pytest

from repro import make_platform
from repro.models.opencl_like import CLError, OpenCLRuntime
from repro.sim.kernels import dgemm


class TestOpenCL:
    @pytest.fixture()
    def cl(self):
        return OpenCLRuntime(platform=make_platform("HSW", 1), backend="sim")

    def _setup(self, cl):
        devs = cl.get_device_ids()
        ctx = cl.create_context(devs)
        q = cl.create_command_queue(ctx, devs[0])
        prog = cl.create_program_with_source(ctx, "__kernel void dgemm(...) {}")
        cl.build_program(prog)
        kern = cl.create_kernel(prog, "dgemm")
        return ctx, q, kern

    def test_boilerplate_object_discipline(self, cl):
        ctx, q, kern = self._setup(cl)
        ctx.release()
        with pytest.raises(CLError):
            cl.create_command_queue(ctx, 0)

    def test_kernel_requires_built_program(self, cl):
        ctx = cl.create_context(cl.get_device_ids())
        prog = cl.create_program_with_source(ctx, "src")
        with pytest.raises(CLError):
            cl.create_kernel(prog, "k")

    def test_queue_needs_device_in_context(self, cl):
        ctx = cl.create_context([0])
        with pytest.raises(CLError):
            cl.create_command_queue(ctx, 3)

    def test_clblas_dgemm_is_slow_on_knc(self, cl):
        """The paper's 35 GFl/s clBLAS measurement vs hStreams' 982."""
        ctx, q, kern = self._setup(cl)
        cl.register_kernel("dgemm", cost_fn=lambda *a: None)
        n = 4000
        buf = cl.create_buffer(ctx, 8 * n * n)
        cl.set_kernel_arg(kern, 0, buf)
        t0 = cl.elapsed()
        cl.enqueue_nd_range_kernel(q, kern, cost=dgemm(n, n, n))
        cl.finish(q)
        rate = 2 * n**3 / (cl.elapsed() - t0) / 1e9
        assert rate < 60  # demoted to the untuned clBLAS curve

    def test_in_order_queue_is_strict(self, cl):
        ctx = cl.create_context(cl.get_device_ids())
        q = cl.create_command_queue(ctx, 0)
        assert q._inner.strict_fifo

    def test_out_of_order_queue_relaxes(self, cl):
        ctx = cl.create_context(cl.get_device_ids())
        q = cl.create_command_queue(ctx, 0, out_of_order=True)
        assert not q._inner.strict_fifo

    def test_roundtrip_on_thread_backend(self):
        cl = OpenCLRuntime(
            platform=make_platform("HSW", 1), backend="thread", trace=False
        )
        cl.register_kernel("dbl", fn=lambda x: np.multiply(x, 2.0, out=x))
        ctx = cl.create_context(cl.get_device_ids())
        q = cl.create_command_queue(ctx, 0)
        prog = cl.create_program_with_source(ctx, "src")
        cl.build_program(prog)
        kern = cl.create_kernel(prog, "dbl")
        data = np.arange(8.0)
        out = np.zeros(8)
        buf = cl.create_buffer(ctx, data.nbytes)
        cl.enqueue_write_buffer(q, buf, data)
        cl.set_kernel_arg(kern, 0, buf)
        cl.enqueue_nd_range_kernel(q, kern)
        cl.enqueue_read_buffer(q, buf, out)
        cl.finish(q)
        np.testing.assert_array_equal(out, np.arange(8.0) * 2)
        cl.fini()
