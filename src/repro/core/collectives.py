"""Collective transfer planner: one payload, many domains, real schedules.

The paper's §III overhead model shows what every caller of this runtime
kept rediscovering by hand: moving one buffer to N domains as N
independent host-rooted copies serializes on the host link and leaves
the rest of the fabric idle. This module is the planning layer between
the user collectives API (``hs.broadcast`` and friends) and the
scheduler: it tiles the payload into chunks and lowers the collective to
ordinary chunk-level :class:`~repro.core.actions.Action` transfers (plus
copy/accumulate computes for reductions) over a chosen schedule:

``serial``
    N independent host→domain transfers — the naive loop, as a plan.
``ring``
    A store-and-forward chain host→d0→d1→…; each hop forwards the whole
    payload (one chunk) from the previous domain's instance.
``multicast``
    The same chain, chunk-pipelined: hop *k* forwards chunk *c* as soon
    as chunk *c* arrived, so all hops stream concurrently. On a
    contention-aware fabric the host injects the payload once and the
    chain hides the forwarding behind it — time ≈ B/bw + (N−1)·chunk/bw
    instead of serial's N·B/bw.
``tree``
    Binomial: every domain that holds the payload forwards it each
    round, chunk-pipelined; ⌈log₂(N+1)⌉ rounds.

Each chunk is admitted through
:meth:`~repro.core.scheduler.Scheduler.enqueue_precomputed` — the
scheduler's one admission loop, handed the planner's producers in place
of a window scan — so fail_fast, namespace quotas, admission poisoning,
the memory manager's coherence/elision, hsan and
``capture_graph()``/``replay()`` all treat chunks as ordinary actions.
External ordering against work already in the participating streams
comes from one window probe per stream per collective
(:meth:`~repro.core.scheduler.Scheduler.window_producers`), not one scan
per chunk — which is also why a replayed collective performs zero
dependence scans.

Peer forwarding hops are transfers with ``Action.src_domain`` set: they
read the chunk out of the upstream domain's instance instead of the
host's. On the sim backend they are only routable when the platform has
``peer_enabled`` fabric topology; ``schedule="auto"`` therefore degrades
to ``serial`` (exactly the old N-transfer loop, one chunk per
destination) on classic PCIe platforms, keeping every calibrated figure
byte-identical.

Reductions have no transfer primitive that crosses buffers, so
``reduce`` stages per-domain contributions through cached scratch
buffers: a device-side ``coll_copy`` compute, a chunked retrieve, and a
host-side ``coll_acc_<op>`` accumulate per contributor. The scratch
buffers and collective streams are created lazily and cached on the
runtime — run one collective of the same shape before ``capture_graph()``
(buffer/stream creation is illegal inside a capture scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.actions import (
    Action,
    ActionKind,
    Operand,
    OperandMode,
    XferDirection,
)
from repro.core.errors import HStreamsBadArgument
from repro.sim.kernels import KernelCost

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.buffer import Buffer
    from repro.core.events import HEvent
    from repro.core.runtime import HStreams
    from repro.core.stream import Stream

__all__ = [
    "SCHEDULES",
    "REDUCE_OPS",
    "CollectiveResult",
    "plan_broadcast",
    "plan_scatter",
    "plan_gather",
    "plan_reduce",
    "plan_allreduce",
]

SCHEDULES = ("auto", "serial", "tree", "ring", "multicast")

#: Reduction combiners; each registers a ``coll_acc_<op>`` kernel.
REDUCE_OPS = ("sum", "prod", "max", "min")

#: Floor for one pipelined chunk: below this the per-transfer overheads
#: dominate and pipelining stops paying.
MIN_CHUNK_BYTES = 64 * 1024

#: Pipelined schedules split the payload into at most this many chunks.
DEFAULT_PIPELINE_CHUNKS = 8

_REDUCE_UFUNCS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


@dataclass
class CollectiveResult:
    """What one planned collective produced.

    ``actions`` is every chunk transfer / staging compute in admission
    order; ``arrivals`` maps each destination domain to the completion
    event after which its full payload (or, for gather/reduce, the
    host's result at key ``0``) is in place.
    """

    kind: str
    schedule: str
    domains: Tuple[int, ...]
    nchunks: int
    chunk_bytes: int
    actions: List[Action] = field(default_factory=list)
    arrivals: Dict[int, "HEvent"] = field(default_factory=dict)
    _hs: Optional["HStreams"] = field(default=None, repr=False)

    @property
    def events(self) -> List["HEvent"]:
        """Completion events of every planned action."""
        return [a.completion for a in self.actions if a.completion is not None]

    @property
    def done(self) -> List["HEvent"]:
        """The per-domain frontier events (all fired ⇒ collective done)."""
        return list(self.arrivals.values())

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block the source until the whole collective completed."""
        if self._hs is not None and self.events:
            self._hs.event_wait(self.events, timeout=timeout)


StreamMap = Optional[Dict[int, "Stream"]]
AfterArg = Sequence  # HEvent | Action entries


class _Plan:
    """Shared admission plumbing for one collective being lowered."""

    def __init__(
        self,
        hs: "HStreams",
        kind: str,
        schedule: str,
        domains: Sequence[int],
        nchunks: int,
        chunk_bytes: int,
    ):
        self.hs = hs
        self.result = CollectiveResult(
            kind=kind,
            schedule=schedule,
            domains=tuple(domains),
            nchunks=nchunks,
            chunk_bytes=chunk_bytes,
            _hs=hs,
        )

    # -- dependence helpers ---------------------------------------------------

    def first_deps(self, stream: "Stream", ops: Sequence[Operand]) -> List[Action]:
        """External ordering for the first chunk admitted into ``stream``.

        One window scan over the collective's whole footprint on that
        stream — the producers a normal ``enqueue`` would have found.
        """
        probe = Action(kind=ActionKind.SYNC, stream=stream, operands=tuple(ops))
        return self.hs.scheduler.window_producers(stream, probe)

    # -- admission ------------------------------------------------------------

    def _admit(self, action: Action, deps: Sequence[Optional[Action]]) -> Action:
        hs = self.hs
        hs.backend.advance_host(hs.config.enqueue_overhead_s)
        seen: set = set()
        dep_actions: List[Action] = []
        for dep in deps:
            if dep is not None and id(dep) not in seen:
                seen.add(id(dep))
                dep_actions.append(dep)
        hs.scheduler.enqueue_precomputed(action, dep_actions)
        hs._count_admitted((action,))
        self.result.actions.append(action)
        return action

    def xfer(
        self,
        stream: "Stream",
        buf: "Buffer",
        offset: int,
        nbytes: int,
        direction: XferDirection = XferDirection.SRC_TO_SINK,
        src_domain: Optional[int] = None,
        deps: Sequence[Optional[Action]] = (),
        label: str = "",
    ) -> Action:
        mode = (
            OperandMode.OUT
            if direction is XferDirection.SRC_TO_SINK
            else OperandMode.IN
        )
        op = Operand(buf, offset, nbytes, mode)
        action = Action(
            kind=ActionKind.XFER,
            stream=stream,
            operands=(op,),
            direction=direction,
            nbytes=nbytes,
            src_domain=src_domain,
            label=label,
        )
        hs = self.hs
        hs._ensure_instance(buf, 0)
        hs._ensure_instance(buf, stream.domain)
        if src_domain is not None and src_domain != 0:
            hs._ensure_instance(buf, src_domain)
        return self._admit(action, deps)

    def compute(
        self,
        stream: "Stream",
        kernel: str,
        ops: Sequence[Operand],
        cost: KernelCost,
        deps: Sequence[Optional[Action]] = (),
        label: str = "",
    ) -> Action:
        action = Action(
            kind=ActionKind.COMPUTE,
            stream=stream,
            operands=tuple(ops),
            kernel=kernel,
            args=tuple(ops),
            cost=cost,
            label=label,
        )
        for op in ops:
            self.hs._ensure_instance(op.buffer, stream.domain)
        return self._admit(action, deps)


# -- argument normalization ----------------------------------------------------


def _check_range(buf: "Buffer", offset: int, nbytes: Optional[int]) -> Tuple[int, int]:
    if nbytes is None:
        nbytes = buf.nbytes - offset
    if offset < 0 or nbytes < 0 or offset + nbytes > buf.nbytes:
        raise HStreamsBadArgument(
            f"collective range [{offset}, {offset + nbytes}) exceeds "
            f"buffer {buf.name!r} of {buf.nbytes} bytes"
        )
    return offset, nbytes


def _normalize_domains(hs: "HStreams", domains: Sequence[int]) -> List[int]:
    out: List[int] = []
    seen: set = set()
    for d in domains:
        d = int(d)
        hs.domain(d)  # raises HStreamsNotFound on a bad index
        if d not in seen:
            seen.add(d)
            out.append(d)
    if not out:
        raise HStreamsBadArgument("collective needs at least one domain")
    return out


def _targets(hs: "HStreams", domains: Sequence[int]) -> List[int]:
    """Non-host destinations, order preserved (host already has the data)."""
    return [d for d in _normalize_domains(hs, domains) if d != 0]


def _peer_routable(hs: "HStreams") -> bool:
    """Whether peer forwarding hops can execute on this runtime.

    The sim backend routes through the platform fabric: peer hops need
    ``peer_enabled`` topology. The thread backend copies between numpy
    instances, and the capture backend executes nothing — both follow
    the platform flag anyway so a program plans identically under every
    backend of the same platform.
    """
    return bool(getattr(hs.platform, "peer_enabled", False))


def _resolve_schedule(
    hs: "HStreams", schedule: str, ntargets: int, nbytes: int
) -> str:
    if schedule not in SCHEDULES:
        raise HStreamsBadArgument(
            f"unknown schedule {schedule!r}; use one of {SCHEDULES}"
        )
    if schedule == "auto":
        if _peer_routable(hs) and ntargets >= 2 and nbytes > 0:
            return "multicast"
        return "serial"
    if schedule in ("tree", "ring", "multicast") and not _peer_routable(hs):
        raise HStreamsBadArgument(
            f"schedule {schedule!r} needs peer-routable fabric; this "
            "platform has peer_enabled=False — use 'serial' or 'auto', "
            "or build the platform with peer links "
            "(e.g. make_cluster_platform())"
        )
    return schedule


def _chunk_ranges(offset: int, nbytes: int, chunk_bytes: int) -> List[Tuple[int, int]]:
    # A zero-length range has no chunks. Returning a single empty chunk
    # here (as this once did) made zero-length collectives emit real
    # zero-byte transfers — actions that instantiate buffers, occupy
    # stream windows, and order against unrelated work, for no bytes.
    if nbytes == 0:
        return []
    out: List[Tuple[int, int]] = []
    pos, end = offset, offset + nbytes
    while pos < end:
        n = min(chunk_bytes, end - pos)
        out.append((pos, n))
        pos += n
    return out


def _default_chunk_bytes(schedule: str, nbytes: int) -> int:
    if schedule in ("serial", "ring") or nbytes == 0:
        return max(nbytes, 1)  # one chunk: exactly the naive transfer
    per = -(-nbytes // DEFAULT_PIPELINE_CHUNKS)
    return max(MIN_CHUNK_BYTES, per)


def _as_actions(after: AfterArg) -> List[Action]:
    out: List[Action] = []
    for item in after or ():
        if isinstance(item, Action):
            out.append(item)
        else:
            act = getattr(item, "action", None)
            if act is not None:
                out.append(act)
    return out


def _stream_for(hs: "HStreams", streams: StreamMap, domain: int) -> "Stream":
    if streams is not None and domain in streams:
        stream = streams[domain]
        if stream.domain != domain:
            raise HStreamsBadArgument(
                f"stream {stream.name!r} sinks in domain {stream.domain}, "
                f"not {domain}"
            )
        return stream
    return hs._collective_stream(domain)


def _slices(
    offset: int, nbytes: int, targets: Sequence[int], parts
) -> List[Tuple[int, int, int]]:
    """Per-domain contiguous slices ``(domain, offset, nbytes)``.

    Without explicit ``parts`` the range splits evenly in target order,
    remainder spread over the leading domains (every byte lands
    somewhere, no byte lands twice).
    """
    if parts is not None:
        out = []
        for d in targets:
            if d not in parts:
                raise HStreamsBadArgument(f"parts is missing domain {d}")
            off, n = parts[d]
            out.append((d, int(off), int(n)))
        return out
    m = len(targets)
    base, rem = divmod(nbytes, m)
    out = []
    pos = offset
    for i, d in enumerate(targets):
        n = base + (1 if i < rem else 0)
        out.append((d, pos, n))
        pos += n
    return out


# -- broadcast -----------------------------------------------------------------


def plan_broadcast(
    hs: "HStreams",
    buf: "Buffer",
    domains: Sequence[int],
    offset: int = 0,
    nbytes: Optional[int] = None,
    schedule: str = "auto",
    chunk_bytes: Optional[int] = None,
    streams: StreamMap = None,
    after: AfterArg = (),
    label: str = "",
) -> CollectiveResult:
    """Replicate ``buf[offset:offset+nbytes]`` from the host to ``domains``."""
    offset, nbytes = _check_range(buf, offset, nbytes)
    targets = _targets(hs, domains)
    sched = _resolve_schedule(hs, schedule, len(targets), nbytes)
    if chunk_bytes is None:
        chunk_bytes = _default_chunk_bytes(sched, nbytes)
    elif chunk_bytes < 1:
        raise HStreamsBadArgument(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    chunks = _chunk_ranges(offset, nbytes, chunk_bytes)
    plan = _Plan(hs, "broadcast", sched, targets, len(chunks), chunk_bytes)
    after_actions = _as_actions(after)
    tag = label or f"bcast:{buf.name}"
    if not targets or not chunks:
        # No destinations, or a zero-length payload: dependence-inert —
        # no actions, no arrivals, nothing admitted into any stream.
        return plan.result
    if sched == "serial":
        _serial_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                          after_actions, tag)
    elif sched in ("ring", "multicast"):
        _chain_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                         after_actions, tag)
    else:  # tree
        _tree_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                        after_actions, tag)
    return plan.result


def _serial_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                      after_actions, tag):
    hs = plan.hs
    full = Operand(buf, offset, nbytes, OperandMode.OUT)
    for d in targets:
        s = _stream_for(hs, streams, d)
        first = plan.first_deps(s, (full,)) + after_actions
        prev: Optional[Action] = None
        for c, (off, n) in enumerate(chunks):
            deps = first if prev is None else [prev]
            prev = plan.xfer(s, buf, off, n, deps=deps, label=f"{tag}:d{d}c{c}")
        plan.result.arrivals[d] = prev.completion


def _chain_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                     after_actions, tag):
    """host→d0→d1→… chain; ``ring`` is this with one whole-payload chunk."""
    hs = plan.hs
    full = Operand(buf, offset, nbytes, OperandMode.OUT)
    upstream: List[Action] = []
    for h, d in enumerate(targets):
        s = _stream_for(hs, streams, d)
        src = None if h == 0 else targets[h - 1]
        first = plan.first_deps(s, (full,))
        if h == 0:
            first = first + after_actions
        row: List[Action] = []
        for c, (off, n) in enumerate(chunks):
            deps: List[Optional[Action]] = []
            if c == 0:
                deps.extend(first)
            else:
                deps.append(row[c - 1])
            if h > 0:
                deps.append(upstream[c])
            row.append(
                plan.xfer(s, buf, off, n, src_domain=src, deps=deps,
                          label=f"{tag}:h{h}c{c}")
            )
        upstream = row
        plan.result.arrivals[d] = row[-1].completion


def _tree_broadcast(plan, buf, targets, offset, nbytes, chunks, streams,
                    after_actions, tag):
    """Binomial tree over vertices 0..m, vertex 0 = host, i = targets[i-1]."""
    hs = plan.hs
    full = Operand(buf, offset, nbytes, OperandMode.OUT)
    m = len(targets)
    # arrival_row[v][c]: the action that delivered chunk c to vertex v.
    arrival_row: Dict[int, List[Optional[Action]]] = {0: [None] * len(chunks)}
    r = 0
    while (1 << r) <= m:
        span = 1 << r
        for v in range(min(span, m + 1)):
            w = v + span
            if w > m or w in arrival_row:
                continue
            d = targets[w - 1]
            s = _stream_for(hs, streams, d)
            src = None if v == 0 else targets[v - 1]
            first = plan.first_deps(s, (full,))
            if v == 0:
                first = first + after_actions
            row: List[Optional[Action]] = []
            for c, (off, n) in enumerate(chunks):
                deps: List[Optional[Action]] = []
                if c == 0:
                    deps.extend(first)
                else:
                    deps.append(row[c - 1])
                deps.append(arrival_row[v][c])
                row.append(
                    plan.xfer(s, buf, off, n, src_domain=src, deps=deps,
                              label=f"{tag}:r{r}v{w}c{c}")
                )
            arrival_row[w] = row
            plan.result.arrivals[d] = row[-1].completion
        r += 1


# -- scatter / gather ----------------------------------------------------------


def plan_scatter(
    hs: "HStreams",
    buf: "Buffer",
    domains: Sequence[int],
    offset: int = 0,
    nbytes: Optional[int] = None,
    parts: Optional[Dict[int, Tuple[int, int]]] = None,
    chunk_bytes: Optional[int] = None,
    streams: StreamMap = None,
    after: AfterArg = (),
    label: str = "",
) -> CollectiveResult:
    """Distribute contiguous slices of the range, one per domain.

    ``parts`` overrides the even split with explicit per-domain
    ``(offset, nbytes)`` slices.
    """
    offset, nbytes = _check_range(buf, offset, nbytes)
    targets = _targets(hs, domains)
    if not targets:
        raise HStreamsBadArgument("scatter needs at least one non-host domain")
    slices = _slices(offset, nbytes, targets, parts)
    for d, off, n in slices:
        _check_range(buf, off, n)
    chunk = chunk_bytes or max(nbytes, 1)
    # With nbytes < len(targets) the even split leaves trailing domains
    # with zero-length slices; those emit no chunks (and get no arrival
    # event — no bytes ever move toward them). The reported chunk count
    # is the widest non-empty slice's, clamped to at least one whenever
    # any slice has bytes.
    chunked = [(d, off, _chunk_ranges(off, n, chunk)) for d, off, n in slices]
    nchunks = max((len(cs) for _, _, cs in chunked), default=0)
    plan = _Plan(hs, "scatter", "serial", targets, nchunks, chunk)
    after_actions = _as_actions(after)
    tag = label or f"scatter:{buf.name}"
    for (d, off, n), (_, _, cs) in zip(slices, chunked):
        if not cs:
            continue
        s = _stream_for(hs, streams, d)
        first = plan.first_deps(s, (Operand(buf, off, n, OperandMode.OUT),))
        first = first + after_actions
        prev: Optional[Action] = None
        for c, (coff, cn) in enumerate(cs):
            deps = first if prev is None else [prev]
            prev = plan.xfer(s, buf, coff, cn, deps=deps, label=f"{tag}:d{d}c{c}")
        plan.result.arrivals[d] = prev.completion
    return plan.result


def plan_gather(
    hs: "HStreams",
    buf: "Buffer",
    domains: Sequence[int],
    offset: int = 0,
    nbytes: Optional[int] = None,
    parts: Optional[Dict[int, Tuple[int, int]]] = None,
    chunk_bytes: Optional[int] = None,
    streams: StreamMap = None,
    after: AfterArg = (),
    label: str = "",
) -> CollectiveResult:
    """Pull each domain's slice of the range home (scatter's inverse)."""
    offset, nbytes = _check_range(buf, offset, nbytes)
    targets = _targets(hs, domains)
    if not targets:
        raise HStreamsBadArgument("gather needs at least one non-host domain")
    slices = _slices(offset, nbytes, targets, parts)
    for d, off, n in slices:
        _check_range(buf, off, n)
    chunk = chunk_bytes or max(nbytes, 1)
    # Mirror of scatter: zero-length slices contribute no chunks and no
    # arrival events.
    chunked = [(d, off, _chunk_ranges(off, n, chunk)) for d, off, n in slices]
    nchunks = max((len(cs) for _, _, cs in chunked), default=0)
    plan = _Plan(hs, "gather", "serial", targets, nchunks, chunk)
    after_actions = _as_actions(after)
    tag = label or f"gather:{buf.name}"
    for (d, off, n), (_, _, cs) in zip(slices, chunked):
        if not cs:
            continue
        s = _stream_for(hs, streams, d)
        first = plan.first_deps(s, (Operand(buf, off, n, OperandMode.IN),))
        first = first + after_actions
        prev: Optional[Action] = None
        for c, (coff, cn) in enumerate(cs):
            deps = first if prev is None else [prev]
            prev = plan.xfer(
                s, buf, coff, cn, direction=XferDirection.SINK_TO_SRC,
                deps=deps, label=f"{tag}:d{d}c{c}",
            )
        plan.result.arrivals[d] = prev.completion
    return plan.result


# -- reduce / allreduce --------------------------------------------------------


def _register_reduce_kernels(hs: "HStreams") -> None:
    if "coll_copy" in hs._kernels:
        return
    hs.register_kernel("coll_copy", fn=lambda dst, src: np.copyto(dst, src))
    for name, ufunc in _REDUCE_UFUNCS.items():
        def make(u):
            return lambda acc, part: u(acc, part, out=acc)

        hs.register_kernel(f"coll_acc_{name}", fn=make(ufunc))


def _copy_cost(nbytes: int) -> KernelCost:
    return KernelCost(
        kernel="coll_copy",
        flops=0.0,
        size=float(max(1, nbytes // 8)),
        bytes_moved=2.0 * nbytes,
    )


def _acc_cost(nbytes: int) -> KernelCost:
    return KernelCost(
        kernel="coll_acc",
        flops=float(max(1, nbytes // 8)),
        size=float(max(1, nbytes // 8)),
        bytes_moved=3.0 * nbytes,
    )


def plan_reduce(
    hs: "HStreams",
    buf: "Buffer",
    domains: Sequence[int],
    op: str = "sum",
    dtype=np.float64,
    offset: int = 0,
    nbytes: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
    streams: StreamMap = None,
    after: AfterArg = (),
    label: str = "",
) -> CollectiveResult:
    """Combine each domain's instance of the range into the host's.

    Result: ``host ← host op d0 op d1 op …`` elementwise over ``dtype``
    items. Per contributor the plan stages through a cached scratch
    buffer: device-side ``coll_copy``, chunked retrieve, host
    ``coll_acc_<op>``; accumulates serialize in contributor order for
    determinism.
    """
    if op not in _REDUCE_UFUNCS:
        raise HStreamsBadArgument(f"unknown reduce op {op!r}; use one of {REDUCE_OPS}")
    offset, nbytes = _check_range(buf, offset, nbytes)
    itemsize = np.dtype(dtype).itemsize
    if nbytes % itemsize:
        raise HStreamsBadArgument(
            f"reduce range of {nbytes} bytes is not a whole number of "
            f"{np.dtype(dtype).name} items"
        )
    targets = _targets(hs, domains)
    if not targets:
        raise HStreamsBadArgument("reduce needs at least one non-host domain")
    _register_reduce_kernels(hs)
    chunk = chunk_bytes or max(nbytes, 1)
    plan = _Plan(
        hs, "reduce", "serial", targets,
        len(_chunk_ranges(0, nbytes, chunk)), chunk,
    )
    if nbytes == 0:
        # Zero items to combine: dependence-inert, and in particular no
        # scratch staging (zero-length scratch buffers cannot exist).
        return plan.result
    after_actions = _as_actions(after)
    tag = label or f"reduce:{buf.name}"
    host_stream = _stream_for(hs, streams, 0)
    host_first = plan.first_deps(
        host_stream, (Operand(buf, offset, nbytes, OperandMode.INOUT),)
    )
    accum: Optional[Action] = None
    for d in targets:
        scratch = hs._collective_scratch(buf, d, nbytes)
        s = _stream_for(hs, streams, d)
        copy_ops = (
            Operand(scratch, 0, nbytes, OperandMode.OUT, dtype=dtype),
            Operand(buf, offset, nbytes, OperandMode.IN, dtype=dtype),
        )
        first = plan.first_deps(s, copy_ops) + after_actions
        prev = plan.compute(
            s, "coll_copy", copy_ops, _copy_cost(nbytes), deps=first,
            label=f"{tag}:copy:d{d}",
        )
        for c, (coff, cn) in enumerate(_chunk_ranges(0, nbytes, chunk)):
            prev = plan.xfer(
                s, scratch, coff, cn, direction=XferDirection.SINK_TO_SRC,
                deps=[prev], label=f"{tag}:ret:d{d}c{c}",
            )
        acc_ops = (
            Operand(buf, offset, nbytes, OperandMode.INOUT, dtype=dtype),
            Operand(scratch, 0, nbytes, OperandMode.IN, dtype=dtype),
        )
        deps: List[Optional[Action]] = [prev]
        if accum is None:
            deps.extend(host_first)
            deps.extend(after_actions)
        else:
            deps.append(accum)
        accum = plan.compute(
            host_stream, f"coll_acc_{op}", acc_ops, _acc_cost(nbytes),
            deps=deps, label=f"{tag}:acc:d{d}",
        )
    plan.result.arrivals[0] = accum.completion
    return plan.result


def plan_allreduce(
    hs: "HStreams",
    buf: "Buffer",
    domains: Sequence[int],
    op: str = "sum",
    dtype=np.float64,
    offset: int = 0,
    nbytes: Optional[int] = None,
    schedule: str = "auto",
    chunk_bytes: Optional[int] = None,
    streams: StreamMap = None,
    after: AfterArg = (),
    label: str = "",
) -> CollectiveResult:
    """Reduce into the host, then broadcast the result back out."""
    tag = label or f"allreduce:{buf.name}"
    red = plan_reduce(
        hs, buf, domains, op=op, dtype=dtype, offset=offset, nbytes=nbytes,
        chunk_bytes=chunk_bytes, streams=streams, after=after,
        label=f"{tag}:reduce",
    )
    # A zero-length reduce plans no actions; the broadcast then orders
    # against the caller's original ``after`` instead of a final
    # accumulate that does not exist.
    final = red.actions[-1] if red.actions else None
    bc = plan_broadcast(
        hs, buf, domains, offset=offset, nbytes=nbytes, schedule=schedule,
        chunk_bytes=chunk_bytes, streams=streams,
        after=[final] if final is not None else after,
        label=f"{tag}:bcast",
    )
    out = CollectiveResult(
        kind="allreduce",
        schedule=bc.schedule,
        domains=red.domains,
        nchunks=bc.nchunks,
        chunk_bytes=bc.chunk_bytes,
        actions=red.actions + bc.actions,
        arrivals={**red.arrivals, **bc.arrivals},
        _hs=hs,
    )
    return out
