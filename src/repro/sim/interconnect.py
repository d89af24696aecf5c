"""PCIe/fabric interconnect model.

Each non-host domain is reached through a :class:`LinkPair`: two
independent :class:`Link` directions (host-to-device, device-to-host), so
transfers in opposite directions overlap but same-direction transfers
serialize — the behaviour that makes pipelining tiles worthwhile in the
paper.

:class:`Fabric` composes the link pairs into a topology:

* **root links** — every domain's full-duplex port toward the host, the
  only routes the original runtime had;
* **peer routing** (optional) — a card/node-to-card/node transfer holds
  the source port's egress (``d2h``) direction and the destination
  port's ingress (``h2d``) direction for the wire duration, the standard
  switch model.  Distinct hops of a store-and-forward chain use disjoint
  port pairs, which is what lets a pipelined multicast genuinely overlap
  its hops;
* **shared host bus** (optional) — a capacity-1 root-complex resource
  per direction.  With it enabled, host-rooted same-direction transfers
  serialize *across* destinations (N independent broadcasts cost N wire
  times), not just per destination link.  Without it, the model degrades
  to the original independent-links behaviour.

Transfer time = per-message latency + payload / bandwidth; a peer hop is
bottlenecked by the slower of its two ports.

Accounting: ``bytes_moved`` and ``busy_time`` are charged when a
transfer actually holds the wire, not at submission; time spent queued
behind the resource (and, for host-rooted traffic, behind the shared
bus) accumulates in ``queue_wait``.

Every transfer is one generator body (:meth:`Link.occupy`,
:meth:`Fabric.moves`) that holds its resources, charges the accounting
and returns the byte count. :meth:`Link.transfer` and
:meth:`Fabric.transfer` start that body as an engine process and return
it as the completion event; a caller already inside a process runs the
body with ``yield from`` instead (see :mod:`repro.coi.coi`).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.sim.engine import Engine, Event, Resource

__all__ = ["Link", "LinkPair", "Fabric"]


def _nothing(nbytes: int) -> Generator:
    """Body of a same-node move: no wire, done at once."""
    return nbytes
    yield  # pragma: no cover - makes this a generator


class Link:
    """One direction of a point-to-point interconnect."""

    def __init__(
        self,
        engine: Engine,
        bandwidth_gbs: float,
        latency_s: float,
        name: str = "link",
    ):
        if bandwidth_gbs <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_gbs}")
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.engine = engine
        self.bandwidth_gbs = bandwidth_gbs
        self.latency_s = latency_s
        self.name = name
        self._resource = Resource(engine, capacity=1, name=name)
        self.bytes_moved = 0
        self.busy_time = 0.0
        self.queue_wait = 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Occupancy time on the wire for ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)

    def occupy(self, nbytes: int, duration: float, submitted: float) -> Generator:
        """Generator: acquire the wire, charge accounting, hold ``duration``.

        ``submitted`` is the engine time the caller issued the transfer;
        the gap until the wire grant is charged to ``queue_wait``.
        Yield-from this inside an engine process that may co-hold other
        resources around it. Returns ``nbytes``.
        """
        yield self._resource.request()
        try:
            self.queue_wait += self.engine.now - submitted
            self.bytes_moved += nbytes
            self.busy_time += duration
            yield self.engine.timeout(duration)
        finally:
            self._resource.release()
        return nbytes

    def transfer(self, nbytes: int) -> Event:
        """Start a transfer; the returned event fires at completion."""
        duration = self.transfer_time(nbytes)
        return self.engine.process(self.occupy(nbytes, duration, self.engine.now))

    @property
    def queued(self) -> int:
        """Transfers waiting behind the one on the wire."""
        return self._resource.queued


class LinkPair:
    """Full-duplex connection between the host and one device."""

    def __init__(
        self,
        engine: Engine,
        bandwidth_gbs: float,
        latency_s: float,
        name: str = "pcie",
        d2h_bandwidth_gbs: Optional[float] = None,
    ):
        self.name = name
        self.h2d = Link(engine, bandwidth_gbs, latency_s, name=f"{name}:h2d")
        self.d2h = Link(
            engine, d2h_bandwidth_gbs or bandwidth_gbs, latency_s, name=f"{name}:d2h"
        )

    def direction(self, to_device: bool) -> Link:
        """The link carrying traffic toward (or away from) the device."""
        return self.h2d if to_device else self.d2h

    @property
    def bytes_moved(self) -> int:
        """Total payload bytes in both directions."""
        return self.h2d.bytes_moved + self.d2h.bytes_moved

    @property
    def queue_wait(self) -> float:
        """Total time transfers queued for either direction of this port."""
        return self.h2d.queue_wait + self.d2h.queue_wait


class Fabric:
    """All ports of one platform, with optional peer routing and bus.

    Deadlock-free by construction: every transfer acquires at most one
    *egress* resource (a ``d2h`` link or the host TX bus) strictly
    before at most one *ingress* resource (an ``h2d`` link or the host
    RX bus), and the two sets are disjoint — a hold-and-wait cycle would
    need an ingress holder waiting on an egress, which never happens.
    """

    def __init__(
        self,
        engine: Engine,
        ports: Dict[int, LinkPair],
        host_bus: bool = False,
        peer_enabled: bool = False,
    ):
        self.engine = engine
        self.ports = ports
        self.peer_enabled = peer_enabled
        self.host_tx = Resource(engine, capacity=1, name="hostbus:tx") if host_bus else None
        self.host_rx = Resource(engine, capacity=1, name="hostbus:rx") if host_bus else None
        self.host_bus_wait = 0.0
        self.peer_bytes_moved = 0
        self.peer_transfers = 0

    @property
    def has_host_bus(self) -> bool:
        return self.host_tx is not None

    def routes(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` is reachable without host staging."""
        if src == dst or src == 0 or dst == 0:
            return True
        return self.peer_enabled and src in self.ports and dst in self.ports

    def transfer(self, src: int, dst: int, nbytes: int) -> Event:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Host-rooted transfers ride the destination/source port (plus the
        shared bus when modelled); peer transfers hold both ports. The
        returned event fires at completion with ``nbytes``.
        """
        return self.engine.process(self.moves(src, dst, nbytes))

    def moves(self, src: int, dst: int, nbytes: int) -> Generator:
        """:meth:`transfer`'s body, for ``yield from`` in a caller's process.

        Checks the route now; the returned generator holds the route's
        resources for the wire time and returns ``nbytes``. A same-node
        move holds nothing.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        for node in (src, dst):
            if node != 0 and node not in self.ports:
                raise ValueError(
                    f"no fabric node {node}; known nodes: {sorted(self.ports)}"
                )
        if src == dst:
            return _nothing(nbytes)
        if src == 0:
            return self._host_rooted(self.ports[dst].h2d, nbytes, tx=True)
        if dst == 0:
            return self._host_rooted(self.ports[src].d2h, nbytes, tx=False)
        if not self.peer_enabled:
            raise ValueError(
                f"card-to-card DMA ({src}->{dst}) is not routed; stage via the host"
            )
        return self._peer(src, dst, nbytes)

    def _host_rooted(self, link: Link, nbytes: int, tx: bool) -> Generator:
        duration = link.transfer_time(nbytes)
        submitted = self.engine.now
        bus = self.host_tx if tx else self.host_rx
        if bus is None:
            return (yield from link.occupy(nbytes, duration, submitted))
        # Bus (egress for h2d) before link keeps the global
        # egress-then-ingress order; for d2h the link *is* the
        # egress, so the RX bus is folded into the wire hold.
        if tx:
            yield bus.request()
            self.host_bus_wait += self.engine.now - submitted
            try:
                yield from link.occupy(nbytes, duration, submitted)
            finally:
                bus.release()
        else:
            yield link._resource.request()
            try:
                granted = self.engine.now
                yield bus.request()
                self.host_bus_wait += self.engine.now - granted
                try:
                    link.queue_wait += self.engine.now - submitted
                    link.bytes_moved += nbytes
                    link.busy_time += duration
                    yield self.engine.timeout(duration)
                finally:
                    bus.release()
            finally:
                link._resource.release()
        return nbytes

    def _peer(self, src: int, dst: int, nbytes: int) -> Generator:
        egress = self.ports[src].d2h
        ingress = self.ports[dst].h2d
        duration = max(egress.transfer_time(nbytes), ingress.transfer_time(nbytes))
        submitted = self.engine.now
        yield egress._resource.request()
        try:
            yield ingress._resource.request()
            try:
                waited = self.engine.now - submitted
                for link in (egress, ingress):
                    link.queue_wait += waited
                    link.bytes_moved += nbytes
                    link.busy_time += duration
                self.peer_bytes_moved += nbytes
                self.peer_transfers += 1
                yield self.engine.timeout(duration)
            finally:
                ingress._resource.release()
        finally:
            egress._resource.release()
        return nbytes

    def peer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Wire time of one peer hop (bottleneck of the two ports)."""
        return max(
            self.ports[src].d2h.transfer_time(nbytes),
            self.ports[dst].h2d.transfer_time(nbytes),
        )

    def metrics(self) -> Dict[str, object]:
        """Deterministic counters for ``hs.metrics()['fabric']``."""
        links: Dict[str, Dict[str, float]] = {}
        total_bytes = 0
        total_busy = 0.0
        total_wait = 0.0
        for dom, pair in sorted(self.ports.items()):
            entry = {
                "h2d_bytes": pair.h2d.bytes_moved,
                "d2h_bytes": pair.d2h.bytes_moved,
                "h2d_busy_s": pair.h2d.busy_time,
                "d2h_busy_s": pair.d2h.busy_time,
                "queue_wait_s": pair.queue_wait,
            }
            links[str(dom)] = entry
            total_bytes += pair.bytes_moved
            total_busy += pair.h2d.busy_time + pair.d2h.busy_time
            total_wait += pair.queue_wait
        return {
            "bytes_moved": total_bytes,
            "busy_time_s": total_busy,
            "queue_wait_s": total_wait,
            "host_bus": self.has_host_bus,
            "host_bus_wait_s": self.host_bus_wait,
            "peer_enabled": self.peer_enabled,
            "peer_bytes_moved": self.peer_bytes_moved,
            "peer_transfers": self.peer_transfers,
            "links": links,
        }
