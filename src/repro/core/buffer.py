"""Buffers and the unified source-proxy address space.

All memory that user code can reference is represented in a single
*source proxy address space*, partitioned into buffers (paper §II). Each
buffer records, per domain in which it is instantiated, the "physical"
instance — a real numpy allocation under the thread backend, or a byte
count under the sim backend. Operand addresses translate from the proxy
space to the sink domain's instance automatically, which is the property
the paper contrasts with CUDA's per-device address juggling.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import Operand, OperandMode
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsNotFound,
    HStreamsOutOfRange,
)
from repro.core.properties import MemType

__all__ = ["Buffer", "ProxyAddressSpace"]

_buffer_ids = itertools.count()

_ALIGN = 64  # cache-line alignment for proxy base addresses
_BASE = 0x1000  # leave page zero unmapped, as a real allocator would


class ProxyAddressSpace:
    """Allocator and resolver for the unified source proxy address space."""

    def __init__(self) -> None:
        self._next = _BASE
        self._bases: List[int] = []
        self._buffers: Dict[int, "Buffer"] = {}
        # Tombstones for destroyed buffers: base -> (nbytes, name).
        # Proxy ranges are never reused (the allocator cursor is
        # monotonic), so a tombstone identifies the stale buffer a
        # dangling proxy address used to point into.
        self._destroyed: Dict[int, Tuple[int, str]] = {}
        self._destroyed_bases: List[int] = []

    def allocate(self, nbytes: int) -> int:
        """Reserve an aligned proxy range and return its base address."""
        if nbytes <= 0:
            raise HStreamsBadArgument(f"buffer size must be > 0, got {nbytes}")
        base = self._next
        self._next = (base + nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        return base

    def register(self, buffer: "Buffer") -> None:
        """Make a buffer resolvable by proxy address."""
        idx = bisect.bisect_left(self._bases, buffer.proxy_base)
        self._bases.insert(idx, buffer.proxy_base)
        self._buffers[buffer.proxy_base] = buffer

    def unregister(self, buffer: "Buffer") -> None:
        """Remove a destroyed buffer from the resolver, leaving a
        tombstone so stale addresses resolve to a named error."""
        idx = bisect.bisect_left(self._bases, buffer.proxy_base)
        if idx >= len(self._bases) or self._bases[idx] != buffer.proxy_base:
            raise HStreamsNotFound(f"buffer {buffer.name!r} is not registered")
        self._bases.pop(idx)
        del self._buffers[buffer.proxy_base]
        self._destroyed[buffer.proxy_base] = (buffer.nbytes, buffer.name)
        bisect.insort(self._destroyed_bases, buffer.proxy_base)

    def resolve(self, proxy_addr: int) -> Tuple["Buffer", int]:
        """Translate a proxy address to ``(buffer, offset)``.

        This is the lookup the runtime performs when a raw proxy pointer
        is passed as a task operand. An address inside a *destroyed*
        buffer's (never-reused) range raises
        :class:`~repro.core.errors.HStreamsNotFound` naming that buffer;
        an address that was never part of any buffer raises
        :class:`~repro.core.errors.HStreamsOutOfRange`.
        """
        idx = bisect.bisect_right(self._bases, proxy_addr) - 1
        if idx >= 0:
            buf = self._buffers[self._bases[idx]]
            off = proxy_addr - buf.proxy_base
            if off < buf.nbytes:
                return buf, off
        didx = bisect.bisect_right(self._destroyed_bases, proxy_addr) - 1
        if didx >= 0:
            base = self._destroyed_bases[didx]
            nbytes, name = self._destroyed[base]
            if proxy_addr - base < nbytes:
                raise HStreamsNotFound(
                    f"proxy address {proxy_addr:#x} belonged to buffer "
                    f"{name!r}, which has been destroyed"
                )
        raise HStreamsOutOfRange(
            f"proxy address {proxy_addr:#x} falls in no registered buffer"
        )

    def __len__(self) -> int:
        return len(self._buffers)


class Buffer:
    """A region of the proxy address space, instantiable in many domains."""

    def __init__(
        self,
        space: ProxyAddressSpace,
        nbytes: int,
        name: str = "",
        mem_type: MemType = MemType.DDR,
        read_only: bool = False,
        host_array: Optional[np.ndarray] = None,
    ):
        if host_array is not None:
            # Wrapping requires the caller's memory, not a copy, so the
            # sink writes land where the user can see them.
            arr = np.ascontiguousarray(host_array)
            made_copy = arr is not host_array or arr.nbytes != host_array.nbytes
            if made_copy and not host_array.flags["C_CONTIGUOUS"]:
                raise HStreamsBadArgument(
                    f"buffer {name!r}: wrapped arrays must be C-contiguous"
                )
            nbytes = host_array.nbytes
        self.space = space
        self.nbytes = int(nbytes)
        self.uid = next(_buffer_ids)
        self.name = name or f"buf{self.uid}"
        self.mem_type = mem_type
        self.read_only = read_only
        self.proxy_base = space.allocate(self.nbytes)
        # domain index -> instance. Thread backend stores flat uint8 views
        # (or the wrapped host array); sim backend stores None placeholders.
        self.instances: Dict[int, Optional[np.ndarray]] = {}
        self.host_array = host_array
        space.register(self)

    # -- operand helpers -----------------------------------------------------

    def range(
        self, offset: int, nbytes: int, mode: OperandMode = OperandMode.INOUT
    ) -> Operand:
        """An operand covering ``[offset, offset + nbytes)`` of this buffer."""
        return Operand(self, offset, nbytes, mode)

    def all(self, mode: OperandMode = OperandMode.INOUT) -> Operand:
        """An operand covering the whole buffer."""
        return Operand(self, 0, self.nbytes, mode)

    def tensor(
        self,
        shape: Tuple[int, ...],
        offset: int = 0,
        dtype=np.float64,
        mode: OperandMode = OperandMode.INOUT,
    ) -> Operand:
        """A typed operand: resolves to a view of ``shape``/``dtype`` at the
        sink. This is what compute kernels receive as array arguments.

        ``math.prod`` over the shape tuple, not ``np.prod``: the RTM
        propagator builds ~10k of these per run, and the numpy reduction
        costs 30x the integer product.
        """
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dtype.itemsize
        return Operand(self, offset, nbytes, mode, dtype=dtype, shape=shape)

    def all_in(self) -> Operand:
        """Whole-buffer read operand."""
        return self.all(OperandMode.IN)

    def all_out(self) -> Operand:
        """Whole-buffer write operand."""
        return self.all(OperandMode.OUT)

    def all_inout(self) -> Operand:
        """Whole-buffer read-write operand."""
        return self.all(OperandMode.INOUT)

    # -- instances -----------------------------------------------------------

    def instantiated_in(self, domain: int) -> bool:
        """Whether this buffer has an instance in ``domain``."""
        return domain in self.instances

    def instance_array(self, domain: int) -> np.ndarray:
        """The flat uint8 view of the instance in ``domain`` (thread backend)."""
        try:
            arr = self.instances[domain]
        except KeyError:
            raise HStreamsNotFound(
                f"buffer {self.name!r} has no instance in domain {domain}"
            ) from None
        if arr is None:
            raise HStreamsNotFound(
                f"buffer {self.name!r} has a sim-only instance in domain {domain}"
            )
        return arr

    def view(self, domain: int, offset: int = 0, nbytes: Optional[int] = None,
             dtype=np.float64, shape=None) -> np.ndarray:
        """A typed numpy view into a domain instance.

        This is the sink-side address translation: a task operand given in
        proxy space resolves to this view in the sink's address space.
        """
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or offset + nbytes > self.nbytes:
            raise HStreamsOutOfRange(
                f"view [{offset}, {offset + nbytes}) exceeds buffer "
                f"{self.name!r} of {self.nbytes} bytes"
            )
        flat = self.instance_array(domain)[offset : offset + nbytes]
        typed = flat.view(dtype)
        return typed.reshape(shape) if shape is not None else typed

    def destroy(self) -> None:
        """Release the proxy range.

        Instance teardown (backend state, capacity accounting, the
        ``instances`` dict itself) belongs to the runtime's
        :class:`~repro.core.memory.MemoryManager`; a bare buffer used
        without a runtime never instantiates anywhere.
        """
        self.space.unregister(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        doms = sorted(self.instances)
        return (
            f"<Buffer {self.name!r} {self.nbytes}B proxy={self.proxy_base:#x} "
            f"domains={doms}>"
        )
