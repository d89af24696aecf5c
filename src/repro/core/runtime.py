"""The hStreams runtime: domains, streams, buffers, enqueue, and sync.

The :class:`HStreams` class is the library's front door. It owns the
backend-independent logic — resource partitioning, the proxy address
space, operand collection, intra-stream dependence computation — and
delegates *execution* to a pluggable backend:

* ``backend="thread"`` — real execution of registered Python kernels on
  per-stream worker threads, with per-domain numpy address spaces.
* ``backend="sim"`` — virtual-time execution on the calibrated platform
  models, used to regenerate the paper's performance figures.

The source endpoint (the thread calling these APIs) is single-threaded,
as in the paper's applications.
"""

from __future__ import annotations

import contextlib
import os as _os
from dataclasses import replace as _dc_replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.actions import (
    Action,
    ActionKind,
    Operand,
    OperandMode,
    XferDirection,
)
from repro.core.buffer import Buffer, ProxyAddressSpace
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsInvalid,
    HStreamsNotFound,
    HStreamsNotInitialized,
)
from repro.core.events import HEvent
from repro.core.memory import EvictionPolicy, MemoryManager
from repro.core.properties import MemType, RuntimeConfig
from repro.core.scheduler import FAILURE_POLICIES, Scheduler
from repro.core.stream import Stream
from repro.core.sync import Sanitizer, sanitize_mode_from_env
from repro.sim.kernels import KernelCost
from repro.sim.platforms import Platform, make_platform
from repro.sim.trace import Tracer

__all__ = ["DomainInfo", "HStreams", "KernelSpec"]

#: When set (by ``repro.core.capture.capture_session``), every
#: HStreams constructed is forced into capture mode and appended here,
#: so the program checker can analyze runtimes a program creates
#: internally without the program opting in.
_capture_registry: Optional[List["HStreams"]] = None

#: Bound once for the per-enqueue count: on Python 3.11 a member lookup
#: such as ``ActionKind.COMPUTE`` is a ~0.1 us class-attribute call.
_COMPUTE = ActionKind.COMPUTE
_XFER = ActionKind.XFER


class DomainInfo:
    """One discoverable domain: its device and resource bookkeeping."""

    def __init__(self, index: int, device):
        self.index = index
        self.device = device
        self._core_cursor = 0
        #: Back-reference to the owning runtime's memory manager, set
        #: by :class:`HStreams`; ``None`` for bare DomainInfo objects.
        self._memory: Optional[MemoryManager] = None

    @property
    def allocated_bytes(self) -> int:
        """Bytes charged against this domain's capacity.

        Delegates to the runtime's
        :class:`~repro.core.memory.MemoryManager`, the single authority
        over per-domain byte accounting.
        """
        return self._memory.allocated_bytes(self.index) if self._memory else 0

    @property
    def is_host(self) -> bool:
        """Domain 0 is the host (the streams' source endpoint)."""
        return self.index == 0

    @property
    def props(self) -> Dict[str, Any]:
        """Discoverable domain properties (paper §II)."""
        return {
            "name": self.device.name,
            "kind": self.device.kind,
            "cores": self.device.total_cores,
            "threads": self.device.total_threads,
            "clock_ghz": self.device.clock_ghz,
            "ram_gb": self.device.ram_gb,
            "peak_dp_gflops": self.device.peak_dp_gflops,
        }

    def take_cores(self, ncores: int) -> Tuple[int, ...]:
        """Hand out the next ``ncores`` cores, wrapping when exhausted.

        Wrapping implements stream oversubscription: multiple streams
        mapped onto a common set of resources, which the paper lists as a
        tuner's prerogative.
        """
        total = self.device.total_cores
        if ncores < 1 or ncores > total:
            raise HStreamsBadArgument(
                f"domain {self.index}: ncores={ncores} outside 1..{total}"
            )
        mask = tuple((self._core_cursor + i) % total for i in range(ncores))
        self._core_cursor = (self._core_cursor + ncores) % total
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Domain {self.index} {self.device.name}>"


class KernelSpec:
    """A registered kernel: a callable (thread backend), a cost model
    (sim backend), or both."""

    def __init__(
        self,
        name: str,
        fn: Optional[Callable] = None,
        cost_fn: Optional[Callable[..., KernelCost]] = None,
    ):
        if fn is None and cost_fn is None:
            raise HStreamsBadArgument(
                f"kernel {name!r} needs a callable, a cost model, or both"
            )
        self.name = name
        self.fn = fn
        self.cost_fn = cost_fn


class HStreams:
    """An initialized hStreams runtime instance."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        backend: Union[str, Any] = "thread",
        config: Optional[RuntimeConfig] = None,
        trace: bool = True,
        capture_only: bool = False,
        eviction_policy: Union[str, EvictionPolicy] = "manual",
        transfer_elision: bool = True,
        failure_policy: str = "poison",
        sanitize: Union[bool, str, None] = None,
    ):
        if failure_policy not in FAILURE_POLICIES:
            raise HStreamsBadArgument(
                f"unknown failure_policy {failure_policy!r}; "
                f"use one of {FAILURE_POLICIES}"
            )
        #: What a failed action does to the rest of the run: ``"poison"``
        #: transitively cancels its dependents, ``"fail_fast"``
        #: additionally cancels all enqueued work and rejects new
        #: enqueues, ``"retry"`` re-executes transient failures with
        #: capped exponential backoff before poisoning.
        self.failure_policy = failure_policy
        #: Live :class:`~repro.core.faults.FaultInjector`, set by
        #: :func:`~repro.core.faults.inject_faults`; backends consult it
        #: before executing each action.
        self.fault_injector = None
        if sanitize is None:
            mode = sanitize_mode_from_env()
        elif sanitize is True:
            mode = "raise"
        elif sanitize is False:
            mode = None
        else:
            mode = sanitize
        #: The rtsan dynamic lock-discipline sanitizer
        #: (:mod:`repro.core.sync`), or None — the zero-overhead
        #: default, in which every lock this runtime creates is a plain
        #: ``threading`` primitive.
        self.sanitizer: Optional[Sanitizer] = Sanitizer(mode) if mode else None
        self.platform = platform if platform is not None else make_platform("HSW", 1)
        self.config = config if config is not None else RuntimeConfig()
        self.tracer = Tracer(enabled=trace)
        self.proxy_space = ProxyAddressSpace()
        self.domains: List[DomainInfo] = [
            DomainInfo(i, dev) for i, dev in enumerate(self.platform.devices)
        ]
        #: The memory subsystem: instance lifecycle, per-domain capacity
        #: accounting, coherence states, transfer elision, and eviction.
        #: Created before the backend attaches (the sim backend hands it
        #: the COI buffer pool during attach).
        self.memory = MemoryManager(
            self, policy=eviction_policy, transfer_elision=transfer_elision
        )
        for dom in self.domains:
            dom._memory = self.memory
        self.streams: List[Stream] = []
        self.buffers: List[Buffer] = []
        self._kernels: Dict[str, KernelSpec] = {}
        # Lazily-created per-domain streams and per-(buffer, domain)
        # scratch buffers owned by the collectives planner
        # (repro.core.collectives). Cached so repeated collectives of
        # the same shape create nothing — which is also what makes a
        # collective capturable: run it once outside capture_graph()
        # to warm these, since stream/buffer creation is illegal inside
        # a capture scope.
        self._coll_streams: Dict[int, Stream] = {}
        self._coll_scratch: Dict[Tuple[int, int, int], Buffer] = {}
        self._next_stream_id = 0
        self._initialized = True
        #: Action counters by kind plus transfer byte volume.
        self.stats: Dict[str, int] = {
            "computes": 0, "transfers": 0, "syncs": 0, "bytes_transferred": 0,
        }
        forced = _capture_registry is not None
        if capture_only or forced:
            # Capture mode: record the full action graph for the hazard
            # analyzer without dispatching any real (or virtual) work.
            from repro.core.capture import CaptureBackend

            self.backend = CaptureBackend()
        elif isinstance(backend, str):
            self.backend = _make_backend(backend)
        else:
            self.backend = backend
        self.backend.attach(self)
        #: The backend-agnostic scheduling core; both backends dispatch
        #: exclusively through it.
        self.scheduler = Scheduler(self)
        # The manager observes first: it decides transfer elision at
        # admission (before dispatch and before other observers record
        # the action) and commits coherence states at completion.
        self.scheduler.observers.append(self.memory)
        #: The program-capture recorder, set only in capture mode.
        self.capture = None
        #: The live :class:`~repro.core.replay.GraphRecorder` while a
        #: ``capture_graph()`` scope is open, else None.
        self._graph_recorder = None
        if capture_only or forced:
            from repro.core.capture import ProgramCapture

            self.capture = ProgramCapture(self)
            self.scheduler.observers.append(self.capture)
            if forced:
                _capture_registry.append(self)
        if self.sanitizer is not None:
            # Swap this runtime's core objects onto access-checked
            # subclasses — last, so constructor-time setup (which
            # happens-before any publication to worker threads) is not
            # access-checked. Stream windows follow in on_stream_create.
            self.sanitizer.instrument(self.scheduler)
            self.sanitizer.instrument(self.scheduler.graph)
            self.sanitizer.instrument(self.scheduler.failure)
            self.sanitizer.instrument(self.memory)

    # -- lifecycle ------------------------------------------------------------

    def _check_init(self) -> None:
        if not self._initialized:
            raise HStreamsNotInitialized("runtime has been finalized")

    def fini(self) -> None:
        """Tear the runtime down. Waits for in-flight work first.

        A run failure the caller has *not* yet observed still raises
        here — errors are never silently swallowed — but one that
        already surfaced at an earlier synchronization is not raised a
        second time, so ``fini`` in a ``finally:`` (or context-manager
        exit) after handling the error is safe. Backend resources are
        released either way.
        """
        if not self._initialized:
            return
        failure = self.scheduler.failure
        _, already_seen = failure.snapshot()
        try:
            try:
                self.backend.wait_all()
            except BaseException as exc:
                errors, _ = failure.snapshot()
                if not (already_seen and errors and exc is errors[0]):
                    raise
        finally:
            self.backend.close()
            if self.sanitizer is not None:
                self.sanitizer.close()
            self._initialized = False

    @property
    def initialized(self) -> bool:
        """Whether the runtime is live (``fini()`` not yet called)."""
        return self._initialized

    @property
    def failed(self) -> bool:
        """Whether any action failed (and the failure was not cleared)."""
        return self.scheduler.failure.failed

    def failure_errors(
        self, namespace: Optional[str] = None
    ) -> List[BaseException]:
        """Every recorded action error, in completion order.

        With ``namespace`` given, only that namespace's errors (a
        tenant's private failure ledger). ``None`` returns the full
        ledger across all namespaces, classic streams included.
        """
        if namespace is None:
            return self.scheduler.failure.snapshot()[0]
        return self.scheduler.failure.errors_in(namespace)

    def clear_failure(
        self, namespace: Optional[str] = None
    ) -> List[BaseException]:
        """Acknowledge and reset the run's failure state.

        Drops the error ledger and the poison tombstones: subsequent
        synchronizations stop re-raising, and new enqueues no longer
        cancel against past failures. Returns the dropped errors.
        With ``namespace`` given, only that namespace's errors and
        tombstones are dropped — other tenants' state is untouched.
        """
        self._check_init()
        return self.scheduler.clear_failure(namespace)

    def set_namespace_quota(self, namespace: str, limit: Optional[int]) -> None:
        """Cap a namespace's in-flight actions at ``limit``.

        Enqueues into streams of ``namespace`` raise
        :class:`~repro.core.errors.HStreamsQuotaExceeded` while the cap
        is reached; ``None`` removes the cap. This is the scheduler-side
        backstop behind the service tier's admission control.
        """
        self._check_init()
        self.scheduler.set_namespace_quota(namespace, limit)

    def namespace_inflight(self, namespace: str) -> int:
        """Actions currently in flight for one namespace."""
        return self.scheduler.namespace_inflight(namespace)

    def __enter__(self) -> "HStreams":
        return self

    def __exit__(self, *exc) -> None:
        self.fini()

    # -- domains ---------------------------------------------------------------

    @property
    def ndomains(self) -> int:
        """Number of discoverable domains (host + cards)."""
        return len(self.domains)

    def domain(self, index: int) -> DomainInfo:
        """Domain by index; 0 is the host."""
        try:
            return self.domains[index]
        except IndexError:
            raise HStreamsNotFound(
                f"no domain {index}; platform has {self.ndomains}"
            ) from None

    @property
    def card_domains(self) -> List[DomainInfo]:
        """All non-host domains."""
        return self.domains[1:]

    # -- streams ----------------------------------------------------------------

    def stream_create(
        self,
        domain: int = 0,
        ncores: Optional[int] = None,
        cpu_mask: Optional[Sequence[int]] = None,
        strict_fifo: bool = False,
        name: str = "",
        namespace: str = "",
    ) -> Stream:
        """Create a stream whose sink is ``domain`` (the "core API" path).

        Provide either ``ncores`` (the runtime picks the next free cores,
        wrapping for oversubscription) or an explicit ``cpu_mask``.
        Omitting both binds the whole domain to the stream.

        A non-empty ``namespace`` places the stream in an isolated
        failure/quota scope (the multi-tenant service model): its
        failures only poison and only surface to waits scoped to the
        same namespace, ``set_namespace_quota`` bounds its in-flight
        work, and ``metrics()["namespaces"]`` reports it separately.
        """
        self._check_init()
        dom = self.domain(domain)
        if cpu_mask is not None:
            if ncores is not None:
                raise HStreamsBadArgument("give ncores or cpu_mask, not both")
            mask = tuple(int(c) for c in cpu_mask)
            for c in mask:
                if not (0 <= c < dom.device.total_cores):
                    raise HStreamsBadArgument(
                        f"cpu {c} outside domain {domain}'s 0.."
                        f"{dom.device.total_cores - 1}"
                    )
        else:
            mask = dom.take_cores(ncores if ncores is not None else dom.device.total_cores)
        stream = Stream(
            self._next_stream_id,
            domain,
            mask,
            strict_fifo=strict_fifo,
            name=name,
            namespace=namespace,
        )
        self._next_stream_id += 1
        self.streams.append(stream)
        self.backend.make_stream(stream)
        self.scheduler.on_stream_create(stream)
        return stream

    def app_init(
        self,
        streams_per_domain: int,
        oversubscription: int = 1,
        use_host: bool = False,
        strict_fifo: bool = False,
    ) -> List[Stream]:
        """The "app API" convenience: evenly divide resources into streams.

        Partitions each card domain (plus the host when ``use_host``) into
        ``streams_per_domain`` equal-width places and creates
        ``oversubscription`` logical streams per place. Returns the new
        streams, grouped card-major in creation order.
        """
        self._check_init()
        if streams_per_domain < 1 or oversubscription < 1:
            raise HStreamsBadArgument(
                "streams_per_domain and oversubscription must be >= 1"
            )
        targets = [d for d in self.domains if use_host or not d.is_host]
        if not targets:
            raise HStreamsNotFound("no target domains for app_init")
        created: List[Stream] = []
        for dom in targets:
            width = dom.device.total_cores // streams_per_domain
            if width < 1:
                raise HStreamsBadArgument(
                    f"domain {dom.index} has {dom.device.total_cores} cores; "
                    f"cannot make {streams_per_domain} streams"
                )
            for place in range(streams_per_domain):
                base = place * width
                mask = tuple(range(base, base + width))
                for _ in range(oversubscription):
                    created.append(
                        self.stream_create(
                            dom.index, cpu_mask=mask, strict_fifo=strict_fifo
                        )
                    )
        return created

    def streams_in(self, domain: int) -> List[Stream]:
        """All streams whose sink is ``domain``."""
        return [s for s in self.streams if s.domain == domain]

    def stream_destroy(self, stream: Stream, raise_failures: bool = True) -> None:
        """Destroy a stream: drain it, then release its backend state.

        Unlike CUDA, destruction is optional housekeeping — streams are
        plain integers and the runtime reclaims everything at ``fini()``
        — but long-lived processes that churn through streams (the
        Abaqus solver pattern) can return resources early.

        With ``raise_failures=False`` the drain barrier does not
        re-raise the (namespace's) pending failure ledger: cleanup
        paths that already observed or recorded the errors — the
        service tier closing a tenant session — tear the stream down
        regardless. Callers on this path must ensure the stream is
        quiescent first (a raising ledger short-circuits the wait).
        """
        self._check_init()
        if stream not in self.streams:
            raise HStreamsNotFound(f"stream {stream.id} is not active")
        if raise_failures:
            self.stream_synchronize(stream)
        else:
            try:
                self.stream_synchronize(stream)
            except Exception:
                pass
        self.backend.on_stream_destroy(stream)
        self.scheduler.on_stream_destroy(stream)
        self.streams.remove(stream)

    # -- buffers -----------------------------------------------------------------

    def buffer_create(
        self,
        nbytes: Optional[int] = None,
        array: Optional[np.ndarray] = None,
        name: str = "",
        mem_type: MemType = MemType.DDR,
        domains: Sequence[int] = (),
        read_only: bool = False,
    ) -> Buffer:
        """Create a buffer in the proxy address space.

        Pass ``array`` to wrap caller memory as the host instance (thread
        backend: zero-copy), or ``nbytes`` for a size-only buffer. Listing
        ``domains`` instantiates eagerly there; otherwise instantiation is
        lazy at first use.
        """
        self._check_init()
        if (nbytes is None) == (array is None):
            raise HStreamsBadArgument("give exactly one of nbytes or array")
        buf = Buffer(
            self.proxy_space,
            nbytes=nbytes if nbytes is not None else 0,
            name=name,
            mem_type=mem_type,
            read_only=read_only,
            host_array=array,
        )
        self.buffers.append(buf)
        self.scheduler.notify_buffer("create", buf)
        for d in {0, *domains}:
            self.memory.instantiate(buf, d)
        return buf

    def wrap(self, array: np.ndarray, name: str = "") -> Buffer:
        """Shorthand for wrapping an existing numpy array."""
        return self.buffer_create(array=array, name=name)

    def buffer_destroy(self, buf: Buffer) -> None:
        """Release a buffer's instances and proxy range.

        In-flight actions that still reference the buffer make the
        destroy raise :class:`~repro.core.errors.HStreamsBusy` —
        destroying it would yank instances out from under running
        tasks; synchronize the streams touching it first.
        """
        self._check_init()
        self.memory.destroy(buf)
        buf.destroy()
        self.buffers.remove(buf)
        self.scheduler.notify_buffer("destroy", buf)

    def buffer_evict(self, buf: Buffer, domain: int) -> None:
        """Release a buffer's instance in one (non-host) domain.

        This is how a bounded working set cycles card memory when the
        full tile set exceeds the 16 GB card (the reference codes do
        exactly this to reach n=30000 in Fig. 6) — or, with
        ``eviction_policy="lru"``, what the memory manager does
        automatically under capacity pressure. In-flight actions that
        still reference the instance make the eviction raise
        :class:`~repro.core.errors.HStreamsBusy` — synchronize the
        streams touching it first.
        """
        self._check_init()
        self.memory.evict(buf, domain)

    # -- kernels -------------------------------------------------------------------

    def register_kernel(
        self,
        name: str,
        fn: Optional[Callable] = None,
        cost_fn: Optional[Callable[..., KernelCost]] = None,
    ) -> None:
        """Register a sink-side kernel by name.

        ``fn(*args)`` runs under the thread backend with operand arguments
        resolved to numpy views in the sink domain. ``cost_fn(*args)``
        returns a :class:`KernelCost` for the sim backend; it receives the
        same argument list with operands left as-is.
        """
        self._check_init()
        self._kernels[name] = KernelSpec(name, fn=fn, cost_fn=cost_fn)

    def kernel(self, name: str) -> KernelSpec:
        """Look up a registered kernel."""
        try:
            return self._kernels[name]
        except KeyError:
            raise HStreamsNotFound(f"no kernel registered as {name!r}") from None

    # -- enqueue --------------------------------------------------------------------

    @staticmethod
    def _collect_operands(args: Sequence, extra: Sequence) -> Tuple[Operand, ...]:
        ops: List[Operand] = []
        for items in (args, extra):
            for item in items:
                if isinstance(item, Operand):
                    op = item
                elif isinstance(item, Buffer):
                    op = item.all_inout()
                else:
                    continue
                if op.mode.writes and op.buffer.read_only:
                    raise HStreamsBadArgument(
                        f"buffer {op.buffer.name!r} is read-only; writing "
                        "operands are not allowed (declare the usage "
                        "property accordingly, paper §II)"
                    )
                ops.append(op)
        return tuple(ops)

    def enqueue_compute(
        self,
        stream: Stream,
        kernel: str,
        args: Sequence = (),
        operands: Sequence = (),
        cost: Optional[KernelCost] = None,
        label: str = "",
    ) -> HEvent:
        """Enqueue a compute task into ``stream``.

        Operand arguments (``Operand`` or bare ``Buffer`` entries in
        ``args``/``operands``) define the dependence footprint. The task
        expands across all cores in the stream's sink mask.
        """
        self._check_init()
        spec = self.kernel(kernel)
        ops = self._collect_operands(args, operands)
        if cost is None and spec.cost_fn is not None:
            cost = spec.cost_fn(*args)
        action = Action(
            kind=_COMPUTE,
            stream=stream,
            operands=ops,
            kernel=kernel,
            args=tuple(args),
            cost=cost,
            label=label,
        )
        instantiate = self.memory.instantiate
        for op in ops:
            instantiate(op.buffer, stream.domain)
        return self._enqueue(action)

    def enqueue_xfer(
        self,
        stream: Stream,
        operand: Union[Operand, Buffer],
        direction: XferDirection = XferDirection.SRC_TO_SINK,
        label: str = "",
    ) -> HEvent:
        """Enqueue a data transfer between the source (host) and the sink.

        In host-as-target streams the source and sink instances alias, so
        the transfer is optimized away (paper §V) — it completes
        immediately but still participates in dependence ordering.
        """
        self._check_init()
        mode = (
            OperandMode.OUT
            if direction is XferDirection.SRC_TO_SINK
            else OperandMode.IN
        )
        if isinstance(operand, Buffer):
            operand = operand.all(mode)
        else:
            # Rebuild with only the mode changed: dtype/shape must survive
            # so sink-side views keep the caller's element type.
            operand = _dc_replace(operand, mode=mode)
        action = Action(
            kind=_XFER,
            stream=stream,
            operands=(operand,),
            direction=direction,
            nbytes=operand.nbytes,
            label=label,
        )
        self.memory.instantiate(operand.buffer, 0)
        self.memory.instantiate(operand.buffer, stream.domain)
        return self._enqueue(action)

    def event_stream_wait(
        self,
        stream: Stream,
        events: Sequence[HEvent],
        operands: Optional[Sequence] = None,
        label: str = "",
    ) -> HEvent:
        """Enqueue a synchronization action that waits on ``events``.

        With ``operands`` given, only subsequent actions touching those
        ranges are ordered after the wait; with ``operands=None`` the wait
        is a full barrier in its stream. This is the cross-stream
        dependence mechanism (there are no implicit dependences between
        streams, paper §II).
        """
        self._check_init()
        ops = self._collect_operands((), operands or ())
        action = Action(
            kind=ActionKind.SYNC,
            stream=stream,
            operands=ops,
            label=label,
            deps=list(events),
            barrier=operands is None,
        )
        return self._enqueue(action)

    def _enqueue(self, action: Action) -> HEvent:
        assert action.stream is not None
        self.backend.advance_host(self.config.enqueue_overhead_s)
        event = self.scheduler.enqueue(action)
        self._count_admitted((action,))
        return event

    def _count_admitted(
        self, actions: Sequence[Action], stats: Optional[Dict[str, int]] = None
    ) -> None:
        """Fold actions the scheduler admitted into :attr:`stats` (or
        into ``stats``, a dict with the same keys).

        Called after admission returns, so rejected work is never
        counted and ``stats`` agrees with ``metrics()["actions"]``.
        """
        if stats is None:
            stats = self.stats
        for action in actions:
            kind = action.kind
            if kind is _COMPUTE:
                stats["computes"] += 1
            elif kind is _XFER:
                stats["transfers"] += 1
                stats["bytes_transferred"] += action.nbytes
            else:
                stats["syncs"] += 1

    # -- collectives ----------------------------------------------------------------

    def _collective_stream(self, domain: int) -> Stream:
        """The planner's lazily-created stream sinking in ``domain``."""
        stream = self._coll_streams.get(domain)
        if stream is not None and stream in self.streams:
            return stream
        stream = self.stream_create(domain=domain, ncores=1, name=f"coll-d{domain}")
        self._coll_streams[domain] = stream
        return stream

    def _collective_scratch(self, buf: Buffer, domain: int, nbytes: int) -> Buffer:
        """Cached staging buffer for ``buf``'s contribution from ``domain``."""
        key = (buf.uid, domain, nbytes)
        scratch = self._coll_scratch.get(key)
        if scratch is not None and scratch in self.buffers:
            return scratch
        scratch = self.buffer_create(
            nbytes=nbytes, name=f"coll-scratch:{buf.name or buf.uid}:d{domain}"
        )
        self._coll_scratch[key] = scratch
        return scratch

    def broadcast(self, buf: Buffer, domains: Sequence[int], **kw):
        """Replicate a host buffer range to every domain in ``domains``.

        Lowers to chunked transfer actions over a schedule
        (``schedule=`` "auto", "serial", "ring", "multicast", "tree";
        see :mod:`repro.core.collectives`) instead of a loop of
        ``enqueue_xfer``. Returns a
        :class:`~repro.core.collectives.CollectiveResult` whose
        ``arrivals[d]`` event fires once domain ``d`` holds the payload.
        Accepts ``offset``/``nbytes`` (range), ``chunk_bytes``,
        ``streams`` (per-domain override dict), ``after`` (events or
        actions the collective must follow), and ``label``.
        """
        self._check_init()
        from repro.core.collectives import plan_broadcast

        return plan_broadcast(self, buf, domains, **kw)

    def scatter(self, buf: Buffer, domains: Sequence[int], **kw):
        """Distribute contiguous slices of a host range, one per domain.

        ``parts={domain: (offset, nbytes)}`` overrides the even split.
        Returns a :class:`~repro.core.collectives.CollectiveResult`.
        """
        self._check_init()
        from repro.core.collectives import plan_scatter

        return plan_scatter(self, buf, domains, **kw)

    def gather(self, buf: Buffer, domains: Sequence[int], **kw):
        """Pull each domain's slice of a range back to the host
        (:meth:`scatter`'s inverse). Returns a
        :class:`~repro.core.collectives.CollectiveResult`; its
        ``arrivals[d]`` fires when ``d``'s slice has landed home.
        """
        self._check_init()
        from repro.core.collectives import plan_gather

        return plan_gather(self, buf, domains, **kw)

    def reduce(self, buf: Buffer, domains: Sequence[int], **kw):
        """Combine each domain's instance of a range into the host's.

        ``op=`` "sum" (default), "prod", "max", or "min", elementwise
        over ``dtype`` (default float64). Returns a
        :class:`~repro.core.collectives.CollectiveResult` whose
        ``arrivals[0]`` fires once the host holds the combined value.
        """
        self._check_init()
        from repro.core.collectives import plan_reduce

        return plan_reduce(self, buf, domains, **kw)

    def allreduce(self, buf: Buffer, domains: Sequence[int], **kw):
        """:meth:`reduce` into the host, then :meth:`broadcast` back out."""
        self._check_init()
        from repro.core.collectives import plan_allreduce

        return plan_allreduce(self, buf, domains, **kw)

    # -- graph capture & replay ------------------------------------------------------

    @property
    def capturing(self) -> bool:
        """Whether a :meth:`capture_graph` scope is currently open.

        Layers that elide work when a producer polls complete (the
        linalg dataflow helper) must check this and behave as on a cold
        machine while capturing, or the template would be missing edges.
        """
        return self._graph_recorder is not None

    @contextlib.contextmanager
    def capture_graph(self):
        """Record every action enqueued in this scope into a template.

        Capture is *warm*: the recorded actions still execute normally,
        so the scope costs one ordinary iteration of the program. Yields
        the :class:`~repro.core.replay.GraphTemplate`, finalized when the
        scope exits cleanly; see :meth:`replay`. Scopes do not nest, and
        host synchronization, buffer lifecycle, and stream lifecycle
        calls inside the scope raise
        :class:`~repro.core.errors.HStreamsInvalid` (a template is a pure
        action DAG over pre-existing streams and buffers).
        """
        self._check_init()
        if self._graph_recorder is not None:
            raise HStreamsInvalid("capture_graph() scopes do not nest")
        from repro.core.replay import GraphRecorder

        rec = GraphRecorder(self)
        if self.sanitizer is not None:
            self.sanitizer.instrument(rec)
        with self.scheduler._lock:
            self.scheduler.observers.append(rec)
        self._graph_recorder = rec
        try:
            yield rec.template
        finally:
            self._graph_recorder = None
            with self.scheduler._lock:
                self.scheduler.observers.remove(rec)
        # Only a clean exit finalizes: a scope that raised recorded an
        # incomplete DAG, and replaying it would be silent corruption.
        rec.template.finalized = True

    def replay(self, graph, bindings: Optional[Dict[Buffer, Buffer]] = None):
        """Re-admit a captured graph with its pre-computed dependences.

        ``graph`` is a :class:`~repro.core.replay.GraphTemplate` (which
        is instantiated here, optionally rebinding buffers via
        ``bindings``) or an already-built single-use
        :class:`~repro.core.replay.GraphInstance`. Admission goes through
        :meth:`~repro.core.scheduler.Scheduler.admit_instance`: the
        scheduler's one admission loop, run over the whole instance with
        the template's producers in place of a window scan. fail_fast
        and quota decide for the batch as a whole, so a rejected replay
        admits nothing and leaves the instance replayable. Replay does
        not block; the returned instance's ``events`` are waitable as
        usual, and template streams must be quiescent on entry
        (synchronize first).
        """
        self._check_init()
        from repro.core.replay import GraphInstance, GraphTemplate

        if isinstance(graph, GraphTemplate):
            instance = graph.instantiate(bindings)
        elif isinstance(graph, GraphInstance):
            if bindings is not None:
                raise HStreamsBadArgument(
                    "bindings apply at instantiation; this GraphInstance "
                    "is already bound — pass them to instantiate() or "
                    "replay the template directly"
                )
            instance = graph
        else:
            raise HStreamsBadArgument(
                f"replay() takes a GraphTemplate or GraphInstance, got "
                f"{type(graph).__name__}"
            )
        template = instance.template
        if template.runtime is not self:
            raise HStreamsInvalid(
                "graph template was captured on a different runtime; "
                "streams and buffers do not transfer"
            )
        if self._graph_recorder is not None:
            raise HStreamsInvalid("cannot replay() inside capture_graph()")
        if instance.consumed:
            raise HStreamsInvalid(
                "graph instance was already replayed; instances are "
                "single-use — instantiate() the template again"
            )
        # Quiescence preflight. The template dropped its edges to
        # pre-capture work (external_deps); requiring the involved
        # streams to be idle re-establishes that ordering wholesale.
        for stream in template.quiescent_streams():
            if stream not in self.streams:
                raise HStreamsNotFound(
                    f"cannot replay: stream {stream.name!r} was destroyed "
                    "after capture"
                )
            if self.scheduler.pending_completions(stream):
                raise HStreamsInvalid(
                    f"cannot replay into busy stream {stream.name!r}; "
                    "synchronize it first (replay assumes pre-replay work "
                    "has completed)"
                )
        # One host-overhead advance per replayed batch — per-action
        # enqueue overhead is exactly what replay amortizes away.
        self.backend.advance_host(self.config.enqueue_overhead_s)
        instantiate = self.memory.instantiate
        for buf, domain in instance.instance_sites():
            instantiate(buf, domain)
        self.scheduler.admit_instance(instance)
        # Only an admitted instance is spent: a rejected one (fail_fast,
        # quota) admitted nothing and can be replayed again.
        instance.consumed = True
        stats = self.stats
        for key, count in template.admitted_counts().items():
            stats[key] += count
        return instance

    # -- synchronization -----------------------------------------------------------

    def event_wait(
        self,
        events: Sequence[HEvent],
        wait_all: bool = True,
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> None:
        """Block the source until any/all of ``events`` complete.

        Waiting on a *set* with any/all semantics saves the CPU-spinning
        the paper calls out in the CUDA comparison. Without an explicit
        ``timeout``, ``RuntimeConfig.wait_timeout_s`` applies.

        ``scope`` restricts failure surfacing to one stream namespace
        (see :meth:`stream_create`): a tenant waiting on its own events
        never observes another tenant's errors. ``None`` keeps the
        classic behavior of raising any pending run failure.
        """
        self._check_init()
        if timeout is None:
            timeout = self.config.wait_timeout_s
        self.backend.wait_events(
            list(events), wait_all=wait_all, timeout=timeout, scope=scope
        )
        self.backend.advance_host(self.config.sync_overhead_s)
        # With wait-any semantics only *some* event completed; the
        # happens-before edge to the host is the completed subset.
        observed = (
            list(events) if wait_all else [e for e in events if e.is_complete()]
        )
        self.scheduler.notify_host_sync("event_wait", events=observed)

    def stream_synchronize(
        self, stream: Stream, timeout: Optional[float] = None
    ) -> None:
        """Block until every action enqueued into ``stream`` completed.

        Without an explicit ``timeout``, ``RuntimeConfig.wait_timeout_s``
        applies. A namespaced stream's synchronization is automatically
        scoped: only failures from its own namespace surface here.
        """
        self._check_init()
        if timeout is None:
            timeout = self.config.wait_timeout_s
        scope = stream.namespace or None
        pending = self.scheduler.pending_completions(stream)
        if pending:
            self.backend.wait_events(
                pending, wait_all=True, timeout=timeout, scope=scope
            )
        else:
            # Nothing in flight, but an unacknowledged failure must
            # still surface at every synchronization point.
            self.scheduler.failure.raise_pending(namespace=scope)
        self.backend.advance_host(self.config.sync_overhead_s)
        self.scheduler.notify_host_sync("stream_synchronize", stream=stream)

    def thread_synchronize(self, timeout: Optional[float] = None) -> None:
        """Block until all actions in all streams completed.

        Without an explicit ``timeout``, ``RuntimeConfig.wait_timeout_s``
        applies.
        """
        self._check_init()
        if timeout is None:
            timeout = self.config.wait_timeout_s
        self.backend.wait_all(timeout=timeout)
        self.backend.advance_host(self.config.sync_overhead_s)
        self.scheduler.notify_host_sync("thread_synchronize")

    # -- time & observability ----------------------------------------------------------

    def elapsed(self) -> float:
        """Source-side clock: virtual seconds (sim) or wall seconds (thread)."""
        return self.backend.now()

    def metrics(self) -> Dict[str, Any]:
        """Scheduling observability snapshot (see ``Scheduler.metrics``).

        Reports per-action lifecycle timing (dependence-stall,
        dispatch-stall, execution), per-stream queue depths, and
        throughput counters — identical structure under both backends,
        with timestamps on the owning backend's clock. The ``memory``
        key adds the memory subsystem's view: per-domain capacity
        accounting, transfer-elision and eviction counters, and (sim
        backend) COI buffer-pool hit rates — see
        :meth:`repro.core.memory.MemoryManager.metrics`.
        """
        self._check_init()
        # One lock scope for both blocks: the scheduler and memory
        # snapshots describe the same instant, so a reader thread never
        # sees memory counters from after actions the scheduler block
        # has not retired yet (or vice versa).
        with self.scheduler._lock:
            out = self.scheduler.metrics()
            out["memory"] = self.memory.metrics()
        fabric = getattr(self.backend, "fabric_metrics", None)
        if fabric is not None:
            # Sim backend only: interconnect occupancy/queueing counters
            # (engine state is source-thread-owned — no lock needed).
            out["fabric"] = fabric()
        backend_block = getattr(self.backend, "backend_metrics", None)
        if backend_block is not None:
            # Process backend only: worker/IPC/segment counters (guarded
            # by the backend's own leaf lock — no scheduler lock needed).
            out["backend"] = backend_block()
        return out


def _make_backend(name: str):
    """Backend factory by name ("thread", "process", or "sim").

    ``REPRO_BACKEND=process`` in the environment upgrades ``"thread"``
    requests to the process backend. Both are real-execution backends
    with identical observable semantics, so this is how CI (and local
    runs) drive the thread-labeled parity suites — the fault×policy
    matrix, the Hypothesis dep-set oracle, the failure/timeout tests —
    through the process backend unchanged. Explicit ``"sim"`` requests
    are never overridden: virtual time is part of what those tests
    assert.
    """
    if name == "thread" and _os.environ.get("REPRO_BACKEND") == "process":
        name = "process"
    if name == "thread":
        from repro.core.thread_backend import ThreadBackend

        return ThreadBackend()
    if name == "process":
        from repro.core.process_backend import ProcessBackend

        return ProcessBackend()
    if name == "sim":
        from repro.core.sim_backend import SimBackend

        return SimBackend()
    raise HStreamsBadArgument(
        f"unknown backend {name!r}; use 'thread', 'process', or 'sim'"
    )
