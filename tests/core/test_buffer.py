"""Tests for buffers and the proxy address space."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.actions import OperandMode
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsNotFound,
    HStreamsOutOfRange,
)


class TestProxyAddressSpace:
    def test_allocations_do_not_overlap(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=100)
        b2 = Buffer(space, nbytes=100)
        assert b2.proxy_base >= b1.proxy_base + 100

    def test_bases_are_aligned(self):
        space = ProxyAddressSpace()
        for size in [1, 7, 63, 65, 1000]:
            assert Buffer(space, nbytes=size).proxy_base % 64 == 0

    def test_resolve_finds_containing_buffer(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=128)
        b2 = Buffer(space, nbytes=128)
        buf, off = space.resolve(b2.proxy_base + 17)
        assert buf is b2 and off == 17
        buf, off = space.resolve(b1.proxy_base)
        assert buf is b1 and off == 0

    def test_resolve_outside_any_buffer_raises(self):
        space = ProxyAddressSpace()
        Buffer(space, nbytes=64)
        with pytest.raises(HStreamsOutOfRange):
            space.resolve(1)  # below every base
        with pytest.raises(HStreamsOutOfRange):
            space.resolve(10**12)

    def test_resolve_in_alignment_gap_raises(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=10)  # occupies [base, base+10), pad to 64
        Buffer(space, nbytes=10)
        with pytest.raises(HStreamsOutOfRange):
            space.resolve(b1.proxy_base + 32)  # in b1's padding, not b1

    def test_unregister_then_resolve_raises_not_found(self):
        # A destroyed buffer's range is a tombstone: resolving into it
        # names the buffer (HStreamsNotFound), unlike addresses that
        # never belonged to any buffer (HStreamsOutOfRange).
        space = ProxyAddressSpace()
        b = Buffer(space, nbytes=64, name="victim")
        addr = b.proxy_base
        b.destroy()
        with pytest.raises(HStreamsNotFound, match="victim"):
            space.resolve(addr)
        with pytest.raises(HStreamsNotFound, match="destroyed"):
            space.resolve(addr + 63)  # last byte of the dead range

    def test_resolve_never_registered_stays_out_of_range(self):
        space = ProxyAddressSpace()
        b = Buffer(space, nbytes=64)
        b.destroy()
        with pytest.raises(HStreamsOutOfRange):
            space.resolve(b.proxy_base + 64)  # past the dead range
        with pytest.raises(HStreamsOutOfRange):
            space.resolve(10**12)

    def test_resolve_live_buffer_unaffected_by_neighbor_destroy(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=64)
        b2 = Buffer(space, nbytes=64)
        b1.destroy()
        buf, off = space.resolve(b2.proxy_base + 5)
        assert buf is b2 and off == 5

    def test_double_destroy_raises(self):
        space = ProxyAddressSpace()
        b = Buffer(space, nbytes=64)
        b.destroy()
        with pytest.raises(HStreamsNotFound):
            b.destroy()

    def test_zero_size_rejected(self):
        with pytest.raises(HStreamsBadArgument):
            Buffer(ProxyAddressSpace(), nbytes=0)

    def test_len_counts_registered(self):
        space = ProxyAddressSpace()
        b1 = Buffer(space, nbytes=8)
        Buffer(space, nbytes=8)
        assert len(space) == 2
        b1.destroy()
        assert len(space) == 1

    @given(sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=30))
    def test_property_every_interior_byte_resolves(self, sizes):
        space = ProxyAddressSpace()
        bufs = [Buffer(space, nbytes=s) for s in sizes]
        for b in bufs:
            for off in {0, b.nbytes // 2, b.nbytes - 1}:
                got, goff = space.resolve(b.proxy_base + off)
                assert got is b and goff == off


class TestBufferWrapping:
    def test_wrap_shares_memory(self):
        space = ProxyAddressSpace()
        arr = np.arange(10.0)
        b = Buffer(space, nbytes=0, host_array=arr)
        assert b.nbytes == 80
        b.instances[0] = arr.view(np.uint8).reshape(-1)
        view = b.view(0, dtype=np.float64)
        view[0] = 42.0
        assert arr[0] == 42.0

    def test_non_contiguous_wrap_rejected(self):
        space = ProxyAddressSpace()
        arr = np.zeros((4, 4))[:, ::2]
        with pytest.raises(HStreamsBadArgument):
            Buffer(space, nbytes=0, host_array=arr)


class TestBufferViews:
    def _instantiated(self, nbytes=256):
        space = ProxyAddressSpace()
        b = Buffer(space, nbytes=nbytes)
        b.instances[0] = np.zeros(nbytes, dtype=np.uint8)
        b.instances[1] = np.zeros(nbytes, dtype=np.uint8)
        return b

    def test_view_shapes(self):
        b = self._instantiated(8 * 6)
        v = b.view(0, shape=(2, 3))
        assert v.shape == (2, 3) and v.dtype == np.float64

    def test_views_of_different_domains_are_independent(self):
        b = self._instantiated()
        b.view(0)[0] = 1.0
        assert b.view(1)[0] == 0.0

    def test_view_out_of_range(self):
        b = self._instantiated(64)
        with pytest.raises(HStreamsOutOfRange):
            b.view(0, offset=60, nbytes=16)

    def test_view_of_missing_domain(self):
        b = self._instantiated()
        with pytest.raises(HStreamsNotFound):
            b.view(7)

    def test_instance_array_of_sim_only_instance(self):
        b = self._instantiated()
        b.instances[2] = None  # sim placeholder
        with pytest.raises(HStreamsNotFound):
            b.instance_array(2)

    def test_instantiated_in(self):
        b = self._instantiated()
        assert b.instantiated_in(0) and not b.instantiated_in(5)


class TestOperandHelpers:
    def test_all_variants(self):
        b = Buffer(ProxyAddressSpace(), nbytes=128)
        assert b.all_in().mode is OperandMode.IN
        assert b.all_out().mode is OperandMode.OUT
        assert b.all_inout().mode is OperandMode.INOUT
        assert b.all().nbytes == 128

    def test_range(self):
        b = Buffer(ProxyAddressSpace(), nbytes=128)
        op = b.range(8, 16, OperandMode.IN)
        assert (op.offset, op.nbytes, op.mode) == (8, 16, OperandMode.IN)

    def test_tensor_computes_nbytes(self):
        b = Buffer(ProxyAddressSpace(), nbytes=8 * 12)
        op = b.tensor((3, 4))
        assert op.nbytes == 96
        assert op.shape == (3, 4)
        assert op.dtype == np.float64

    def test_tensor_float32(self):
        b = Buffer(ProxyAddressSpace(), nbytes=1024)
        op = b.tensor((16,), dtype=np.float32)
        assert op.nbytes == 64

    def test_tensor_overflow_rejected(self):
        b = Buffer(ProxyAddressSpace(), nbytes=64)
        with pytest.raises(HStreamsBadArgument):
            b.tensor((100, 100))

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((np.int64(3), np.int32(4)), np.float64),  # numpy-integer dims
            ((), np.float64),  # a scalar: one element
            ((5, 0, 7), np.float64),  # a zero-size dimension
            ((2, 3), np.complex64),  # a non-float64 dtype
            ((2, 3), "int16"),  # a dtype given by name
            ([4, 5], np.float32),  # a shape given as a list
        ],
    )
    def test_tensor_matches_numpy_formula(self, shape, dtype):
        b = Buffer(ProxyAddressSpace(), nbytes=1024)
        op = b.tensor(shape, dtype=dtype)
        expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
        assert op.nbytes == expected
        assert type(op.nbytes) is int
        assert op.dtype == np.dtype(dtype)
        assert isinstance(op.dtype, np.dtype)
        assert op.shape == tuple(shape)
        assert isinstance(op.shape, tuple)
