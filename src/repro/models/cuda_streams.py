"""A CUDA-Streams-like programming model.

Reproduces the semantics the paper contrasts with hStreams (§IV):

* **Strict FIFO execution** — operations in one stream execute strictly
  in order; independent operations cannot overtake (to pipeline, the
  programmer must split work across streams and add explicit event
  synchronization).
* **Opaque handles** — streams and events are opaque objects that must be
  explicitly created and destroyed (vs. hStreams' plain integers and
  implicit per-action events).
* **Per-device address spaces** — ``malloc`` returns a pointer valid only
  on one device; with multiple devices the programmer juggles one
  variable per device per matrix (the Fig. 3 support-variable count).
* **Whole-device kernels** — no sub-device resource partitioning; kernels
  from different streams contend for the whole device.

Runs on either backend via a private hStreams runtime whose streams are
created ``strict_fifo=True`` with full-device masks. Strict in-order
execution is the scheduler's :class:`~repro.core.dependences.StrictFifoPolicy`
applied to those streams — the same scheduling core as hStreams, with a
different dependence policy.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import OperandMode, XferDirection
from repro.core.buffer import Buffer
from repro.core.events import HEvent
from repro.core.properties import RuntimeConfig
from repro.core.runtime import HStreams
from repro.core.stream import Stream
from repro.sim.kernels import KernelCost
from repro.sim.platforms import Platform, make_platform

__all__ = [
    "CudaError",
    "CudaRuntime",
    "CudaStream",
    "CudaEvent",
    "DevicePtr",
    "MEMCPY_HOST_TO_DEVICE",
    "MEMCPY_DEVICE_TO_HOST",
]

MEMCPY_HOST_TO_DEVICE = "h2d"
MEMCPY_DEVICE_TO_HOST = "d2h"

_handle_ids = itertools.count(0xC0DA0000)


class CudaError(Exception):
    """cudaError_t equivalent."""


class CudaStream:
    """An opaque stream handle (cudaStream_t)."""

    def __init__(self, device: int, inner: Stream):
        self._handle = next(_handle_ids)
        self.device = device
        self._inner = inner
        self._destroyed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<cudaStream_t {self._handle:#x} dev{self.device}>"


class CudaEvent:
    """An opaque event handle (cudaEvent_t); must be recorded to be useful."""

    def __init__(self) -> None:
        self._handle = next(_handle_ids)
        self._recorded: Optional[HEvent] = None
        self._destroyed = False


class DevicePtr:
    """A device-only address: valid on exactly one device.

    The application must keep one of these per device per matrix — the
    bookkeeping burden hStreams' unified proxy space removes.
    """

    def __init__(self, device: int, buffer: Buffer, nbytes: int):
        self.device = device
        self._buffer = buffer
        self.nbytes = nbytes
        self._freed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DevicePtr dev{self.device} {self.nbytes}B>"


class CudaRuntime:
    """Process-level CUDA-like state: devices, streams, events, memory."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        backend: str = "sim",
        config: Optional[RuntimeConfig] = None,
        trace: bool = True,
    ):
        self._hs = HStreams(
            platform=platform if platform is not None else make_platform("HSW", 1, card="K40X"),
            backend=backend,
            config=config,
            trace=trace,
        )
        if self._hs.ndomains < 2:
            raise CudaError("CUDA requires at least one device (card)")
        self._current_device = 0  # CUDA device 0 == platform domain 1
        self._kernels: Dict[str, Tuple] = {}
        self._pending_readbacks: List[Tuple[HEvent, Any]] = []

    # -- device management -----------------------------------------------------

    @property
    def device_count(self) -> int:
        """cudaGetDeviceCount."""
        return self._hs.ndomains - 1

    def set_device(self, device: int) -> None:
        """cudaSetDevice."""
        if not (0 <= device < self.device_count):
            raise CudaError(f"invalid device ordinal {device}")
        self._current_device = device

    def get_device(self) -> int:
        """cudaGetDevice."""
        return self._current_device

    def _domain(self, device: Optional[int] = None) -> int:
        return (self._current_device if device is None else device) + 1

    # -- streams and events ------------------------------------------------------

    def stream_create(self) -> CudaStream:
        """cudaStreamCreate: explicit creation, opaque handle returned."""
        domain = self._domain()
        inner = self._hs.stream_create(
            domain=domain,
            ncores=self._hs.domain(domain).device.total_cores,
            strict_fifo=True,
            name=f"cuda{self._current_device}.{len(self._hs.streams)}",
        )
        return CudaStream(self._current_device, inner)

    def stream_destroy(self, stream: CudaStream) -> None:
        """cudaStreamDestroy: explicit destruction is required."""
        if stream._destroyed:
            raise CudaError("stream already destroyed")
        stream._destroyed = True

    def event_create(self) -> CudaEvent:
        """cudaEventCreate."""
        return CudaEvent()

    def event_destroy(self, event: CudaEvent) -> None:
        """cudaEventDestroy."""
        if event._destroyed:
            raise CudaError("event already destroyed")
        event._destroyed = True

    def event_record(self, event: CudaEvent, stream: CudaStream) -> None:
        """cudaEventRecord: capture the stream's current tail."""
        self._check_stream(stream)
        if event._destroyed:
            raise CudaError("event is destroyed")
        # Record = a marker that completes when all prior work in the
        # stream completes; implemented as a barrier sync action.
        event._recorded = self._hs.event_stream_wait(
            stream._inner, [], operands=None, label="cudaEventRecord"
        )

    def stream_wait_event(self, stream: CudaStream, event: CudaEvent) -> None:
        """cudaStreamWaitEvent: cross-stream ordering (explicit, vs
        hStreams' operand-derived dependences)."""
        self._check_stream(stream)
        if event._recorded is None:
            raise CudaError("event was never recorded")
        self._hs.event_stream_wait(
            stream._inner, [event._recorded], operands=None, label="cudaStreamWaitEvent"
        )

    def event_synchronize(self, event: CudaEvent) -> None:
        """cudaEventSynchronize."""
        if event._recorded is None:
            raise CudaError("event was never recorded")
        self._hs.event_wait([event._recorded])
        self._flush_readbacks()

    def stream_synchronize(self, stream: CudaStream) -> None:
        """cudaStreamSynchronize."""
        self._check_stream(stream)
        self._hs.stream_synchronize(stream._inner)
        self._flush_readbacks()

    def device_synchronize(self) -> None:
        """cudaDeviceSynchronize."""
        self._hs.thread_synchronize()
        self._flush_readbacks()

    @staticmethod
    def _check_stream(stream: CudaStream) -> None:
        if stream._destroyed:
            raise CudaError("stream is destroyed")

    # -- memory ---------------------------------------------------------------------

    def malloc(self, nbytes: int, device: Optional[int] = None) -> DevicePtr:
        """cudaMalloc on the current (or given) device."""
        domain = self._domain(device)
        buf = self._hs.buffer_create(nbytes=nbytes, domains=[domain])
        return DevicePtr(domain - 1, buf, nbytes)

    def free(self, ptr: DevicePtr) -> None:
        """cudaFree."""
        if ptr._freed:
            raise CudaError("double free of device pointer")
        ptr._freed = True
        self._hs.buffer_destroy(ptr._buffer)

    def memcpy_async(
        self,
        dst: Any,
        src: Any,
        nbytes: int,
        kind: str,
        stream: CudaStream,
    ) -> None:
        """cudaMemcpyAsync between host memory and a device pointer.

        Strict in-stream ordering applies: the copy will not overtake any
        previously issued operation in ``stream`` even if independent.
        """
        self._check_stream(stream)
        if kind == MEMCPY_HOST_TO_DEVICE:
            ptr, host = dst, src
            direction = XferDirection.SRC_TO_SINK
        elif kind == MEMCPY_DEVICE_TO_HOST:
            ptr, host = src, dst
            direction = XferDirection.SINK_TO_SRC
        else:
            raise CudaError(f"unsupported memcpy kind {kind!r}")
        if not isinstance(ptr, DevicePtr):
            raise CudaError("device side of the copy must be a DevicePtr")
        if ptr._freed:
            raise CudaError("use-after-free of device pointer")
        if ptr.device != stream.device:
            raise CudaError(
                f"pointer is on device {ptr.device}, stream on {stream.device}: "
                "per-device addresses do not travel"
            )
        if nbytes > ptr.nbytes:
            raise CudaError(f"copy of {nbytes}B exceeds allocation of {ptr.nbytes}B")
        hbuf = ptr._buffer
        host_real = (
            isinstance(host, np.ndarray)
            and host.nbytes >= nbytes
            and hbuf.instances.get(0) is not None
        )
        if host_real and direction is XferDirection.SRC_TO_SINK:
            # Thread backend: stage the caller's bytes into the buffer's
            # host instance before the DMA reads it. The staging bypasses
            # the enqueue path, so the memory manager must be told the
            # host copy changed (or a later upload could be elided).
            hbuf.instance_array(0)[:nbytes] = host.view(np.uint8).reshape(-1)[:nbytes]
            self._hs.memory.note_external_host_write(hbuf, 0, nbytes)
        ev = self._hs.enqueue_xfer(
            stream._inner,
            hbuf.range(0, nbytes),
            direction,
            label=f"memcpy-{kind}",
        )
        if host_real and direction is XferDirection.SINK_TO_SRC:
            # The copy-back must land in the caller's array once complete.
            def copy_back(host=host, hbuf=hbuf, nbytes=nbytes) -> None:
                host.view(np.uint8).reshape(-1)[:nbytes] = hbuf.instance_array(0)[
                    :nbytes
                ]

            self._pending_readbacks.append((ev, copy_back))

    def _flush_readbacks(self) -> None:
        remaining = []
        for ev, cb in self._pending_readbacks:
            if ev.is_complete():
                cb()
            else:
                remaining.append((ev, cb))
        self._pending_readbacks = remaining

    # -- kernels -------------------------------------------------------------------

    def register_kernel(self, name: str, fn=None, cost_fn=None) -> None:
        """Register a __global__ kernel by name (requires nvcc in real
        CUDA; any compiler here — the portability point in §IV)."""
        self._hs.register_kernel(name, fn=fn, cost_fn=cost_fn)

    def launch(
        self,
        stream: CudaStream,
        kernel: str,
        args: Sequence = (),
        cost: Optional[KernelCost] = None,
    ) -> None:
        """Kernel launch: occupies the whole device, strictly ordered in
        its stream."""
        self._check_stream(stream)
        resolved = [
            a._buffer.all(OperandMode.INOUT) if isinstance(a, DevicePtr) else a
            for a in args
        ]
        self._hs.enqueue_compute(
            stream._inner, kernel, args=resolved, cost=cost, label=kernel
        )

    # -- plumbing -----------------------------------------------------------------

    def elapsed(self) -> float:
        """Virtual (sim) or wall (thread) seconds since init."""
        return self._hs.elapsed()

    def metrics(self) -> Dict[str, Any]:
        """Scheduling observability snapshot of the underlying runtime."""
        return self._hs.metrics()

    @property
    def tracer(self):
        """The underlying trace recorder."""
        return self._hs.tracer

    @property
    def hstreams(self) -> HStreams:
        """Escape hatch to the underlying runtime (used by tests)."""
        return self._hs

    def fini(self) -> None:
        """Tear down, flushing pending device-to-host readbacks."""
        self._hs.thread_synchronize()
        self._flush_readbacks()
        self._hs.fini()
