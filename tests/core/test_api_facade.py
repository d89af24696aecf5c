"""Tests for the C-style hStreams API facade."""

import numpy as np
import pytest

from repro.core import api as hstr
from repro.core.errors import HStreamsBadArgument, HStreamsNotInitialized
from repro.sim.platforms import make_platform


@pytest.fixture(autouse=True)
def clean_global_runtime():
    """Every test gets a fresh process-global runtime."""
    hstr.hStreams_Fini()
    yield
    hstr.hStreams_Fini()


def app_init(**kw):
    return hstr.hStreams_app_init(
        2, 1, platform=make_platform("HSW", 2), backend="thread", **kw
    )


class TestLifecycle:
    def test_api_before_init_raises(self):
        with pytest.raises(HStreamsNotInitialized):
            hstr.runtime()

    def test_double_init_rejected(self):
        hstr.hStreams_Init(backend="thread")
        with pytest.raises(HStreamsBadArgument):
            hstr.hStreams_Init(backend="thread")

    def test_app_init_creates_streams_per_domain(self):
        ids = app_init()
        assert len(ids) == 4  # 2 per card, 2 cards
        assert ids == sorted(ids)


class TestBuffersByProxyAddress:
    def test_create_and_dealloc(self):
        app_init()
        addr = hstr.hStreams_app_create_buf(nbytes=1024)
        assert addr > 0
        hstr.hStreams_DeAlloc(addr)
        with pytest.raises(Exception):
            hstr.hStreams_DeAlloc(addr)

    def test_interior_address_resolves_to_same_buffer(self):
        app_init()
        addr = hstr.hStreams_app_create_buf(nbytes=1024)
        hstr.hStreams_DeAlloc(addr + 512)  # interior address: same buffer
        rt = hstr.runtime()
        assert len(rt.buffers) == 0

    def test_xfer_endpoints_must_share_a_buffer(self):
        ids = app_init()
        a1 = hstr.hStreams_app_create_buf(nbytes=64)
        a2 = hstr.hStreams_app_create_buf(nbytes=64)
        with pytest.raises(HStreamsBadArgument):
            hstr.hStreams_app_xfer_memory(ids[0], a1, a2, 64, hstr.HSTR_SRC_TO_SINK)


class TestRoundTrip:
    def test_port_shaped_program(self):
        """A program shaped like the paper's C examples: xfer, invoke
        with scalar + heap args, event wait, xfer back, sync."""
        ids = app_init()
        hstr.hStreams_RegisterSinkFunction(
            "scale", fn=lambda f, buf: np.multiply(buf, f, out=buf)
        )
        data = np.arange(16.0)
        addr = hstr.hStreams_app_create_buf(array=data)
        s = ids[0]
        hstr.hStreams_app_xfer_memory(s, addr, addr, data.nbytes, hstr.HSTR_SRC_TO_SINK)
        ev = hstr.hStreams_app_invoke(s, "scale", scalar_args=(3.0,),
                                      heap_args=[addr], heap_nbytes=[data.nbytes])
        hstr.hStreams_app_event_wait([ev])
        hstr.hStreams_app_xfer_memory(s, addr, addr, data.nbytes, hstr.HSTR_SINK_TO_SRC)
        hstr.hStreams_app_thread_sync()
        np.testing.assert_array_equal(data, 3.0 * np.arange(16.0))

    def test_invoke_with_scalars_and_heap_args(self):
        ids = app_init()
        hstr.hStreams_RegisterSinkFunction(
            "fill", fn=lambda v, buf: buf.view(np.float64).fill(v)
        )
        data = np.zeros(8)
        addr = hstr.hStreams_app_create_buf(array=data)
        s = ids[0]
        hstr.hStreams_app_invoke(s, "fill", scalar_args=(7.0,), heap_args=[addr])
        hstr.hStreams_app_xfer_memory(s, addr, addr, 64, hstr.HSTR_SINK_TO_SRC)
        hstr.hStreams_app_thread_sync()
        np.testing.assert_array_equal(data, 7.0 * np.ones(8))

    def test_heap_nbytes_mismatch(self):
        ids = app_init()
        hstr.hStreams_RegisterSinkFunction("noop", fn=lambda *a: None)
        addr = hstr.hStreams_app_create_buf(nbytes=64)
        with pytest.raises(HStreamsBadArgument):
            hstr.hStreams_app_invoke(ids[0], "noop", heap_args=[addr],
                                     heap_nbytes=[1, 2])
