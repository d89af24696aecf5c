"""Cross-stream dependence plumbing for tiled algorithms.

Within a stream, hStreams' FIFO + operand semantics track dependences
implicitly. *Across* streams, the application must insert explicit
synchronization actions (paper §II). :class:`FlowContext` automates the
pattern every tiled code needs:

* remember which action last produced each buffer and in which stream;
* before a consumer runs in a *different* stream, insert one scoped
  ``event_stream_wait`` (deduplicated per consumer stream and producer
  event) so only actions touching that buffer are ordered behind it.

Redundant data movement is no longer this layer's concern: the runtime's
:class:`~repro.core.memory.MemoryManager` tracks per-instance coherence
and *elides* transfers whose destination already holds the bytes (they
complete immediately but still order dependents), so :meth:`send` and
:meth:`retrieve` always enqueue and let the runtime decide — the elision
counters land in ``hs.metrics()["memory"]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.actions import XferDirection
from repro.core.buffer import Buffer
from repro.core.events import HEvent
from repro.core.runtime import HStreams
from repro.core.stream import Stream
from repro.sim.kernels import KernelCost

__all__ = ["FlowContext"]


class FlowContext:
    """Cross-stream dependence tracker over one runtime."""

    def __init__(self, hs: HStreams):
        self.hs = hs
        #: buffer uid -> (producing event, producing stream id)
        self._producer: Dict[int, Tuple[HEvent, int]] = {}
        #: buffer uid -> domain -> (arrival event, carrying stream id);
        #: set by :meth:`broadcast`, consulted by :meth:`require` so a
        #: consumer orders behind *its own domain's* arrival instead of
        #: the whole collective.
        self._arrivals: Dict[int, Dict[int, Tuple[HEvent, int]]] = {}
        #: sync actions already inserted: (consumer stream id, producer
        #: action seq, buffer uid)
        self._synced: Set[Tuple[int, int, int]] = set()
        self.sync_count = 0

    # -- dependences ------------------------------------------------------------

    def require(self, stream: Stream, *bufs: Buffer) -> None:
        """Order ``stream`` behind the producers of ``bufs`` (scoped).

        No action is inserted for same-stream producers (FIFO covers
        them) or producers already synced into this stream.
        """
        pending: Dict[Tuple[int, int], Tuple[HEvent, Buffer]] = {}
        for buf in bufs:
            prod = self._producer.get(buf.uid)
            arrivals = self._arrivals.get(buf.uid)
            if arrivals is not None and stream.domain in arrivals:
                prod = arrivals[stream.domain]
            if prod is None:
                continue
            ev, sid = prod
            if sid == stream.id:
                continue
            # Skipping an already-complete producer is a *timing*
            # optimization; while a capture_graph() scope is recording,
            # the edge must be kept anyway or the template would depend
            # on how far execution happened to have progressed.
            if ev.is_complete() and not self.hs.capturing:
                continue
            # The inserted sync is *scoped* to the buffer's ranges, so
            # under the relaxed FIFO policy only later actions touching
            # those ranges order after it. A sync recorded for one
            # buffer enforces nothing for a different buffer of the same
            # producer event — dedup must be per (consumer stream,
            # producer event, buffer), not per (stream, event). The
            # producer is named by its action's seq, never by id(ev): a
            # superseded event can be freed and its id reused by a new
            # one, which would skip a sync depending on the allocator.
            key = (stream.id, ev.action.seq, buf.uid)
            if key in self._synced:
                continue
            self._synced.add(key)
            pending[(ev.action.seq, buf.uid)] = (ev, buf)
        if pending:
            self.sync_count += 1
            events = {ev.action.seq: ev for ev, _ in pending.values()}
            self.hs.event_stream_wait(
                stream,
                list(events.values()),
                operands=[buf.all_inout() for _, buf in pending.values()],
            )

    def produced(self, buf: Buffer, ev: HEvent, stream: Stream) -> None:
        """Record ``ev`` (in ``stream``) as the latest producer of ``buf``."""
        self._producer[buf.uid] = (ev, stream.id)
        # A new producer supersedes any earlier broadcast's arrivals —
        # the replicated instances are stale now.
        self._arrivals.pop(buf.uid, None)

    # -- wrapped enqueues ------------------------------------------------------------

    def compute(
        self,
        stream: Stream,
        kernel: str,
        args,
        reads: Tuple[Buffer, ...] = (),
        writes: Tuple[Buffer, ...] = (),
        cost: Optional[KernelCost] = None,
        label: str = "",
    ) -> HEvent:
        """Enqueue a compute with cross-stream deps handled.

        ``reads``/``writes`` list the buffers behind the operand args (at
        whole-buffer granularity) for producer tracking.
        """
        self.require(stream, *reads, *writes)
        ev = self.hs.enqueue_compute(stream, kernel, args=args, cost=cost, label=label)
        for buf in writes:
            self.produced(buf, ev, stream)
        return ev

    def broadcast(
        self,
        streams: Iterable[Stream],
        buf: Buffer,
        schedule: str = "auto",
        label: str = "",
    ):
        """Replicate ``buf`` to every domain the given streams sink in.

        One planned collective (:meth:`~repro.core.runtime.HStreams.broadcast`)
        replaces the per-stream :meth:`send` loop: the payload rides a
        pipelined schedule on peer-routable fabrics and degrades to the
        classic serial transfers on PCIe-only platforms. Per-domain
        arrival events are recorded so :meth:`require` (and therefore
        :meth:`compute` ``reads=``) in *any* stream of a target domain
        orders behind that domain's arrival only. Returns the
        :class:`~repro.core.collectives.CollectiveResult`, or None when
        no stream sinks off-host.
        """
        by_domain: Dict[int, Stream] = {}
        for s in streams:
            by_domain.setdefault(s.domain, s)
        domains = [d for d in by_domain if d != 0]
        if not domains:
            return None
        after = []
        prod = self._producer.get(buf.uid)
        if prod is not None:
            ev, _sid = prod
            if not ev.is_complete() or self.hs.capturing:
                after.append(ev)
        res = self.hs.broadcast(
            buf,
            domains,
            schedule=schedule,
            streams=by_domain,
            after=after,
            label=label or f"bcast({buf.name})",
        )
        arrivals = self._arrivals.setdefault(buf.uid, {})
        for d, ev in res.arrivals.items():
            arrivals[d] = (ev, by_domain[d].id)
        return res

    def send(self, stream: Stream, buf: Buffer, label: str = "") -> HEvent:
        """Move ``buf``'s host copy to ``stream``'s domain.

        Always enqueues; the runtime's memory manager elides the
        transfer (zero cost, ordering preserved) when the destination
        instance already holds the bytes — including the aliased
        host-as-target case.
        """
        self.require(stream, buf)
        ev = self.hs.enqueue_xfer(
            stream, buf, XferDirection.SRC_TO_SINK, label=label or f"to({buf.name})"
        )
        self.produced(buf, ev, stream)
        return ev

    def retrieve(self, stream: Stream, buf: Buffer, label: str = "") -> HEvent:
        """Move ``buf``'s sink copy back to the host.

        Always enqueues; redundant retrievals (the host copy is already
        current) are elided by the runtime.
        """
        self.require(stream, buf)
        ev = self.hs.enqueue_xfer(
            stream, buf, XferDirection.SINK_TO_SRC, label=label or f"from({buf.name})"
        )
        self.produced(buf, ev, stream)
        return ev
