"""The OmpSs runtime: dynamic dependence detection, data management,
and scheduling over an hStreams or CUDA-Streams plumbing layer."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.actions import OperandMode, XferDirection
from repro.core.events import HEvent
from repro.core.properties import RuntimeConfig
from repro.core.runtime import HStreams
from repro.models.cuda_streams import (
    MEMCPY_DEVICE_TO_HOST,
    MEMCPY_HOST_TO_DEVICE,
    CudaRuntime,
)
from repro.sim.kernels import KernelCost
from repro.sim.platforms import Platform, make_platform

__all__ = ["OmpSsConfig", "DataRegion", "TaskHandle", "OmpSsRuntime"]

_region_ids = itertools.count()
_task_ids = itertools.count()


@dataclass
class OmpSsConfig:
    """OmpSs runtime knobs.

    ``task_overhead_s`` is the host-side cost of fully dynamic task
    instantiation and scheduling (the paper's explanation for OmpSs'
    small-problem penalty). ``dep_overhead_s`` is the *additional*
    per-dependence-edge cost paid only on the CUDA layer, where OmpSs
    must explicitly compute and enforce dependences. The COI buffer pool
    is disabled by default because the paper's OmpSs configuration ran
    without it ("the COI allocation overheads were significant").
    """

    nstreams: int = 4
    task_overhead_s: float = 2.5e-5
    dep_overhead_s: float = 8.0e-6
    #: "locality": stick to the producer's stream (minimizes cross-stream
    #: edges; dependence chains stay in one FIFO). "balanced": least
    #: cumulative work — sound because all streams share the card's
    #: memory, so data placement is per-*device*, not per-stream.
    #: "round_robin": naive spreading.
    schedule: str = "locality"
    use_buffer_pool: bool = False
    flush_on_taskwait: bool = True

    def __post_init__(self) -> None:
        if self.nstreams < 1:
            raise ValueError("nstreams must be >= 1")
        if self.schedule not in ("balanced", "locality", "round_robin"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.task_overhead_s < 0 or self.dep_overhead_s < 0:
            raise ValueError("overheads must be >= 0")


class DataRegion:
    """One datum OmpSs manages: location tracking + dependence anchors."""

    def __init__(self, nbytes: int, array: Optional[np.ndarray] = None, name: str = ""):
        self.id = next(_region_ids)
        self.nbytes = nbytes
        self.array = array
        self.name = name or f"r{self.id}"
        #: Domains holding a valid copy; the host is domain 0.
        self.valid: Set[int] = {0}
        #: (event, stream_index) of the last writer, if in flight.
        self.last_write: Optional[Tuple[HEvent, int]] = None
        #: Readers since the last write: list of (event, stream_index).
        self.readers: List[Tuple[HEvent, int]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DataRegion {self.name} {self.nbytes}B valid={sorted(self.valid)}>"


class TaskHandle:
    """Returned by :meth:`OmpSsRuntime.task`; resolves at ``taskwait``."""

    def __init__(self, task_id: int, event: HEvent, stream_index: int):
        self.id = task_id
        self.event = event
        self.stream_index = stream_index

    def is_complete(self) -> bool:
        """Non-blocking completion poll."""
        return self.event.is_complete()


class OmpSsRuntime:
    """The OmpSs front end over one device.

    The paper evaluates OmpSs in offload mode with one MIC; this runtime
    matches that: all tasks run on device domain 1, spread over
    ``config.nstreams`` streams.
    """

    def __init__(
        self,
        model: str = "hstreams",
        platform: Optional[Platform] = None,
        backend: str = "sim",
        config: Optional[OmpSsConfig] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        trace: bool = True,
    ):
        if model not in ("hstreams", "cuda"):
            raise ValueError(f"model must be 'hstreams' or 'cuda', got {model!r}")
        self.model = model
        self.config = config if config is not None else OmpSsConfig()
        platform = platform if platform is not None else make_platform("HSW", 1)
        rcfg = runtime_config
        if rcfg is None:
            rcfg = RuntimeConfig(use_buffer_pool=self.config.use_buffer_pool)
        self._regions: Dict[int, DataRegion] = {}
        self._by_array: Dict[int, DataRegion] = {}
        self._handles: List[TaskHandle] = []
        self.stats = {"tasks": 0, "transfers": 0, "dep_edges": 0, "cross_stream_syncs": 0}

        if model == "hstreams":
            self._hs = HStreams(platform=platform, backend=backend, config=rcfg, trace=trace)
            ncores = self._hs.domain(1).device.total_cores
            width = ncores // self.config.nstreams
            self._streams = [
                self._hs.stream_create(domain=1, ncores=width, name=f"ompss{i}")
                for i in range(self.config.nstreams)
            ]
            # SMP tasks (device="host") run here, machine-wide.
            self._host_stream = self._hs.stream_create(
                domain=0,
                cpu_mask=range(self._hs.domain(0).device.total_cores),
                name="ompss-smp",
            )
            self._cuda = None
        else:
            self._cuda = CudaRuntime(
                platform=platform, backend=backend, config=rcfg, trace=trace
            )
            self._hs = self._cuda.hstreams
            self._streams = [self._cuda.stream_create() for _ in range(self.config.nstreams)]
            self._dev_ptrs: Dict[int, Any] = {}  # region id -> DevicePtr
        self._rr = 0
        self._stream_load = [0.0] * len(self._streams)

    # -- data management ---------------------------------------------------------

    def register(self, data: Union[np.ndarray, int], name: str = "") -> DataRegion:
        """Register a datum (an array, or a byte count under the sim
        backend). Arrays are registered implicitly on first use."""
        if isinstance(data, np.ndarray):
            key = data.__array_interface__["data"][0]
            region = self._by_array.get(key)
            if region is None:
                region = DataRegion(data.nbytes, array=data, name=name)
                self._by_array[key] = region
                self._attach_storage(region)
            return region
        region = DataRegion(int(data), name=name)
        self._attach_storage(region)
        return region

    def _attach_storage(self, region: DataRegion) -> None:
        self._regions[region.id] = region
        if self.model == "hstreams":
            if region.array is not None:
                region._buffer = self._hs.wrap(region.array, name=region.name)
            else:
                region._buffer = self._hs.buffer_create(
                    nbytes=region.nbytes, name=region.name
                )
        else:
            # CUDA: automatic device allocation — one device pointer per
            # region (per-device addresses the user would otherwise juggle).
            self._dev_ptrs[region.id] = self._cuda.malloc(region.nbytes)

    def _as_region(self, item: Union[DataRegion, np.ndarray]) -> DataRegion:
        if isinstance(item, DataRegion):
            return item
        if isinstance(item, np.ndarray):
            return self.register(item)
        raise TypeError(f"expected DataRegion or ndarray, got {type(item).__name__}")

    # -- scheduling -----------------------------------------------------------------

    def _pick_stream(self, ins: Sequence[DataRegion], est: float) -> int:
        mode = self.config.schedule
        if mode == "locality" and ins:
            # Prefer the stream that produced the most input bytes.
            score: Dict[int, int] = {}
            for r in ins:
                if r.last_write is not None:
                    score[r.last_write[1]] = score.get(r.last_write[1], 0) + r.nbytes
            if score:
                idx = max(sorted(score), key=lambda k: score[k])
                self._stream_load[idx] += est
                return idx
        if mode == "balanced":
            idx = min(range(len(self._streams)), key=lambda i: self._stream_load[i])
            self._stream_load[idx] += est
            return idx
        idx = self._rr
        self._rr = (self._rr + 1) % len(self._streams)
        self._stream_load[idx] += est
        return idx

    # -- tasks -----------------------------------------------------------------------

    def register_kernel(self, name: str, fn=None, cost_fn=None) -> None:
        """Register a task body by name."""
        self._hs.register_kernel(name, fn=fn, cost_fn=cost_fn)

    def task(
        self,
        kernel: str,
        args: Sequence = (),
        ins: Sequence = (),
        outs: Sequence = (),
        inouts: Sequence = (),
        cost: Optional[KernelCost] = None,
        label: str = "",
        device: str = "card",
    ) -> TaskHandle:
        """Submit one task; dependences derive from its data clauses.

        Region arguments inside ``args`` are positional placeholders that
        resolve to the sink-side views of the corresponding data.
        ``device="host"`` pins the task to the SMP device (OmpSs supports
        heterogeneous task targets), available on the hStreams layer.
        """
        cfg = self.config
        if device not in ("card", "host"):
            raise ValueError(f"device must be 'card' or 'host', got {device!r}")
        if device == "host" and self.model != "hstreams":
            raise ValueError("SMP tasks require the hstreams layer")
        self._hs.backend.advance_host(cfg.task_overhead_s)  # instantiation
        r_ins = [self._as_region(r) for r in ins]
        r_outs = [self._as_region(r) for r in outs]
        r_inouts = [self._as_region(r) for r in inouts]
        reads = r_ins + r_inouts
        writes = r_outs + r_inouts
        est = cost.flops if cost is not None else float(sum(r.nbytes for r in reads + writes) or 1)
        sidx = -1 if device == "host" else self._pick_stream(reads, est)

        # 1. Dependence detection from the dynamic data-access history:
        #    (event, producer stream, region carrying the edge) triples.
        dep_edges: List[Tuple[HEvent, int, DataRegion]] = []
        for r in reads:
            if r.last_write is not None:
                dep_edges.append((*r.last_write, r))
        for r in writes:
            if r.last_write is not None:
                dep_edges.append((*r.last_write, r))
            dep_edges.extend((ev, s, r) for ev, s in r.readers)
        self.stats["dep_edges"] += len(dep_edges)

        # 2. Dependence enforcement. On the hStreams layer only
        #    *cross-stream* edges need action (a scoped sync); same-stream
        #    edges are implicit in the FIFO + operand semantics. On the
        #    CUDA layer OmpSs must explicitly enforce *every* edge from
        #    the host — it cannot see operand-level dependences device-
        #    side — which stalls the submission pipeline and exposes the
        #    consumer's transfers (the paper's "primary contributor").
        if self.model == "hstreams":
            cross = [
                (ev, r) for ev, s, r in dep_edges if s != sidx and not ev.is_complete()
            ]
            if device == "host":
                # Pull dirty inputs home first. The copy-back rides the
                # producer's card stream, so the host stream must wait
                # for *it* — the producer's own event fires before the
                # bytes have moved.
                cross += [
                    (self._transfer_d2h(r), r) for r in reads if 0 not in r.valid
                ]
            if cross:
                # Scope the sync to exactly the regions carrying edges, so
                # this task's unrelated prefetch transfers flow past it.
                self._enforce_cross_deps(
                    sidx,
                    [ev for ev, _ in cross],
                    list({r.id: r for _, r in cross}.values()),
                )
        else:
            pending = [ev for ev, _, _ in dep_edges if not ev.is_complete()]
            if pending:
                self._enforce_cross_deps(sidx, pending, reads + writes)

        # 3. Data movement: ensure every read datum is valid where the
        #    task runs (host tasks pulled theirs home in step 2).
        if device == "card":
            for r in reads:
                if 1 not in r.valid:
                    self._transfer_h2d(r, sidx)

        # 4. Launch.
        ev = self._launch(kernel, args, r_ins, r_outs, r_inouts, sidx, cost, label)

        # 5. Update the access history and location map.
        for r in writes:
            r.last_write = (ev, sidx)
            r.readers = []
            r.valid = {0} if device == "host" else {1}
        for r in r_ins:
            r.readers.append((ev, sidx))
        handle = TaskHandle(next(_task_ids), ev, sidx)
        self._handles.append(handle)
        self.stats["tasks"] += 1
        return handle

    # -- backend-specific pieces --------------------------------------------------------

    def _transfer_h2d(self, region: DataRegion, sidx: int) -> None:
        self.stats["transfers"] += 1
        if self.model == "hstreams":
            self._hs.enqueue_xfer(
                self._streams[sidx], region._buffer, label=f"to({region.name})"
            )
        else:
            ptr = self._dev_ptrs[region.id]
            host = region.array if region.array is not None else None
            if host is None:
                host = np.empty(0)  # sim backend: no real bytes
            self._cuda.memcpy_async(
                ptr, host, region.nbytes, MEMCPY_HOST_TO_DEVICE, self._streams[sidx]
            )
        region.valid.add(1)

    def _transfer_d2h(self, region: DataRegion) -> Optional[HEvent]:
        """Copy ``region`` home on its last writer's stream; returns the
        copy's completion event (hStreams layer only)."""
        self.stats["transfers"] += 1
        sidx = region.last_write[1] if region.last_write is not None else 0
        event = None
        if self.model == "hstreams":
            event = self._hs.enqueue_xfer(
                self._streams[sidx],
                region._buffer,
                XferDirection.SINK_TO_SRC,
                label=f"from({region.name})",
            )
        else:
            ptr = self._dev_ptrs[region.id]
            host = region.array if region.array is not None else np.empty(0)
            self._cuda.memcpy_async(
                host, ptr, region.nbytes, MEMCPY_DEVICE_TO_HOST, self._streams[sidx]
            )
        region.valid.add(0)
        return event

    def _enforce_cross_deps(self, sidx: int, events: List[HEvent], regions) -> None:
        self.stats["cross_stream_syncs"] += 1
        if self.model == "hstreams":
            # One scoped sync action; operands limit what it orders.
            operands = [r._buffer.all_inout() for r in regions]
            self._hs.event_stream_wait(self._stream_at(sidx), events, operands=operands)
        else:
            # CUDA: OmpSs must explicitly compute and enforce dependences
            # (the paper's "primary contributor" to the gap). The classic
            # Nanos GPU backend enforces a cross-stream edge by waiting on
            # the producer's event from the *host* before submitting the
            # consumer, stalling the submission pipeline, and pays
            # bookkeeping per edge.
            self._hs.backend.advance_host(
                self.config.dep_overhead_s * max(len(events), 1)
            )
            self._hs.event_wait(events)

    def _launch(
        self, kernel, args, r_ins, r_outs, r_inouts, sidx, cost, label
    ) -> HEvent:
        mode_of: Dict[int, OperandMode] = {}
        for r in r_ins:
            mode_of[r.id] = OperandMode.IN
        for r in r_outs:
            mode_of[r.id] = OperandMode.OUT
        for r in r_inouts:
            mode_of[r.id] = OperandMode.INOUT
        if self.model == "hstreams":
            resolved = []
            for a in args:
                if isinstance(a, (DataRegion, np.ndarray)):
                    r = self._as_region(a)
                    resolved.append(r._buffer.all(mode_of.get(r.id, OperandMode.INOUT)))
                else:
                    resolved.append(a)
            extra = [
                r._buffer.all(mode_of[r.id])
                for r in r_ins + r_outs + r_inouts
            ]
            return self._hs.enqueue_compute(
                self._stream_at(sidx), kernel, args=resolved, operands=extra,
                cost=cost, label=label or kernel,
            )
        resolved = []
        for a in args:
            if isinstance(a, (DataRegion, np.ndarray)):
                r = self._as_region(a)
                resolved.append(self._dev_ptrs[r.id])
            else:
                resolved.append(a)
        stream = self._streams[sidx]
        self._cuda.launch(stream, kernel, args=resolved, cost=cost)
        # The task's completion anchor: an event recorded behind it.
        cuda_ev = self._cuda.event_create()
        self._cuda.event_record(cuda_ev, stream)
        return cuda_ev._recorded

    def _stream_at(self, sidx: int):
        """Worker stream by index; -1 is the host SMP stream."""
        return self._host_stream if sidx == -1 else self._streams[sidx]

    # -- synchronization ------------------------------------------------------------------

    def taskwait(self, flush: Optional[bool] = None) -> None:
        """Wait for every submitted task; optionally copy dirty data home."""
        flush = self.config.flush_on_taskwait if flush is None else flush
        if flush:
            for r in self._regions.values():
                if 0 not in r.valid:
                    self._transfer_d2h(r)
        self._hs.thread_synchronize()
        if self.model == "cuda":
            self._cuda._flush_readbacks()
        self._handles.clear()

    def elapsed(self) -> float:
        """Virtual (sim) or wall (thread) seconds since init."""
        return self._hs.elapsed()

    def metrics(self) -> Dict[str, Any]:
        """Scheduling observability snapshot of the plumbing runtime."""
        return self._hs.metrics()

    @property
    def tracer(self):
        """The underlying trace recorder."""
        return self._hs.tracer

    @property
    def hstreams(self) -> HStreams:
        """Escape hatch to the plumbing runtime (used by tests)."""
        return self._hs

    def fini(self) -> None:
        """Tear down."""
        self.taskwait(flush=False)
        if self._cuda is not None:
            self._cuda.fini()
        else:
            self._hs.fini()
