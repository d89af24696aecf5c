"""SCIF-like transport: the lowest plumbing layer.

The Symmetric Communications Interface abstracts the PCIe hardware into
two primitives that COI builds on:

* ``message`` — a small control send (doorbells, command descriptors);
  latency-dominated.
* ``dma`` — a bulk payload transfer between two nodes. Host-rooted
  transfers occupy one direction of the far node's port; node-to-node
  transfers are routed only when the underlying :class:`Fabric` has
  peer routing enabled, and otherwise must stage via the host as in the
  paper's applications.

Host-to-host "transfers" complete after a memcpy-speed delay (there is no
wire), and zero-hop transfers (same domain, aliased) are free.
"""

from __future__ import annotations

from typing import Dict, Generator, Union

from repro.sim.engine import Engine, Event
from repro.sim.interconnect import Fabric, LinkPair

__all__ = ["ScifFabric"]

#: Fixed cost of a small SCIF control message (doorbell + descriptor).
MESSAGE_LATENCY_S = 2.0e-6


class ScifFabric:
    """All SCIF endpoints of one platform: host node 0 plus card nodes."""

    def __init__(
        self,
        engine: Engine,
        links: Union[Fabric, Dict[int, LinkPair]],
        host_mem_bw_gbs: float = 100.0,
    ):
        if host_mem_bw_gbs <= 0:
            raise ValueError("host_mem_bw_gbs must be > 0")
        self.engine = engine
        if isinstance(links, Fabric):
            self.fabric = links
        else:
            # Bare port dict: the original independent-links topology.
            self.fabric = Fabric(engine, links)
        self.host_mem_bw_gbs = host_mem_bw_gbs
        self.message_count = 0
        self.dma_count = 0

    @property
    def links(self) -> Dict[int, LinkPair]:
        """Per-domain ports (kept for existing metric consumers)."""
        return self.fabric.ports

    def _immediate(self, delay: float, value=None) -> Event:
        return self.engine.timeout(delay, value=value)

    def message(self, src: int, dst: int) -> Event:
        """Send a small control message from node ``src`` to node ``dst``."""
        self._check_route(src, dst)
        self.message_count += 1
        if src == dst:
            return self._immediate(0.0)
        # A control message rides the link but is latency-dominated; it
        # does not occupy the DMA engine.
        card = dst if dst != 0 else src
        latency = self.links[card].h2d.latency_s + MESSAGE_LATENCY_S
        return self._immediate(latency)

    def dma(self, src: int, dst: int, nbytes: int) -> Event:
        """Bulk transfer of ``nbytes`` from node ``src`` to node ``dst``.

        Host-rooted routes always exist; a node-to-node route exists
        only on a peer-enabled fabric. The returned event fires at DMA
        completion with ``nbytes``.
        """
        return self.engine.process(self.dma_steps(src, dst, nbytes))

    def dma_steps(self, src: int, dst: int, nbytes: int) -> Generator:
        """:meth:`dma`'s body, for ``yield from`` in a caller's process.

        Checks the route now; the returned generator moves the bytes
        (nothing, for an aliased same-node copy) and returns ``nbytes``.
        """
        self._check_route(src, dst)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.dma_count += 1
        return self.fabric.moves(src, dst, nbytes)

    def host_copy(self, nbytes: int) -> Event:
        """A host-local memcpy at memory bandwidth (host-as-target path)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self._immediate(nbytes / (self.host_mem_bw_gbs * 1e9), value=nbytes)

    def _check_route(self, src: int, dst: int) -> None:
        for node in (src, dst):
            if node != 0 and node not in self.links:
                raise ValueError(f"no SCIF node {node}; known cards: {sorted(self.links)}")
