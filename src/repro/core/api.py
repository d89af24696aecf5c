"""A C-style ``hStreams_*`` facade over a process-global runtime.

The slice of the C API that carries the paper's point (§IV, vs CUDA's
opaque pointers): streams are plain integers, and buffers are addressed
by their *source proxy address* — any ``int`` inside a created buffer
resolves, through the unified proxy address space, to that buffer::

    ids = hStreams_app_init(2, 1)                 # 2 streams per card
    addr = hStreams_app_create_buf(nbytes=1 << 20)
    hStreams_app_xfer_memory(ids[0], addr, addr, 1 << 20, HSTR_SRC_TO_SINK)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.actions import Operand, OperandMode, XferDirection
from repro.core.errors import HStreamsBadArgument, HStreamsNotInitialized
from repro.core.events import HEvent
from repro.core.runtime import HStreams
from repro.core.stream import Stream

HSTR_SRC_TO_SINK = XferDirection.SRC_TO_SINK
HSTR_SINK_TO_SRC = XferDirection.SINK_TO_SRC

_rt: Optional[HStreams] = None
_streams: Dict[int, Stream] = {}


def runtime() -> HStreams:
    """The process-global runtime (raises if not initialized)."""
    if _rt is None:
        raise HStreamsNotInitialized("call hStreams_app_init() first")
    return _rt


def hStreams_Init(**runtime_kw) -> None:
    """Create the process-global :class:`HStreams` (untraced by default)."""
    global _rt
    if _rt is not None:
        raise HStreamsBadArgument("hStreams is already initialized")
    _rt = HStreams(**{"trace": False, **runtime_kw})


def hStreams_Fini() -> None:
    """Tear the process-global runtime down (idempotent)."""
    global _rt
    if _rt is not None:
        _rt.fini()
        _rt = None
        _streams.clear()


def hStreams_app_init(
    streams_per_domain: int, log_stream_oversubscription: int = 1, **runtime_kw
) -> List[int]:
    """Initialize if needed, then split every card evenly into streams,
    as the C ``hStreams_app_init`` does. Returns the stream ids."""
    if _rt is None:
        hStreams_Init(**runtime_kw)
    created = runtime().app_init(
        streams_per_domain, oversubscription=log_stream_oversubscription
    )
    _streams.update((s.id, s) for s in created)
    return [s.id for s in created]


def hStreams_app_create_buf(nbytes: Optional[int] = None, array=None) -> int:
    """Create a buffer; returns its source proxy base address."""
    return runtime().buffer_create(nbytes=nbytes, array=array).proxy_base


def hStreams_DeAlloc(addr: int) -> None:
    """Destroy the buffer containing ``addr``."""
    runtime().buffer_destroy(runtime().proxy_space.resolve(addr)[0])


def hStreams_app_xfer_memory(
    stream_id: int, dst_addr: int, src_addr: int, nbytes: int, direction: XferDirection
) -> HEvent:
    """Move one buffer's range between the source and a stream's sink;
    both sides share a proxy address, so both must resolve to it."""
    buf, off = runtime().proxy_space.resolve(dst_addr)
    if runtime().proxy_space.resolve(src_addr)[0] is not buf:
        raise HStreamsBadArgument("xfer endpoints resolve to different buffers")
    op = Operand(buf, off, nbytes, OperandMode.INOUT)
    return runtime().enqueue_xfer(_streams[stream_id], op, direction)


def hStreams_app_invoke(
    stream_id: int,
    func_name: str,
    scalar_args: Sequence = (),
    heap_args: Sequence[int] = (),
    heap_nbytes: Sequence[int] = (),
) -> HEvent:
    """Invoke a sink function on ``scalar_args``, then one operand per proxy
    address in ``heap_args`` (``heap_nbytes`` each, else to buffer end)."""
    if heap_nbytes and len(heap_nbytes) != len(heap_args):
        raise HStreamsBadArgument("heap_nbytes must match heap_args")
    ops = []
    for i, addr in enumerate(heap_args):
        buf, off = runtime().proxy_space.resolve(addr)
        nbytes = heap_nbytes[i] if heap_nbytes else buf.nbytes - off
        ops.append(Operand(buf, off, nbytes, OperandMode.INOUT))
    return runtime().enqueue_compute(
        _streams[stream_id], func_name, args=(*scalar_args, *ops)
    )


def hStreams_RegisterSinkFunction(name: str, fn=None, cost_fn=None) -> None:
    runtime().register_kernel(name, fn=fn, cost_fn=cost_fn)


def hStreams_app_event_wait(events: Sequence[HEvent]) -> None:
    runtime().event_wait(list(events), wait_all=True)


def hStreams_app_thread_sync() -> None:
    runtime().thread_synchronize()
