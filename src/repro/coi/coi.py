"""COI-like offload layer: processes, pipelines, buffers.

COI (Coprocessor Offload Infrastructure) is the layer hStreams is built
on (paper Fig. 1). It owns:

* one sink **process** per card (spawned at init — the paper notes the
  MIC-side overheads are paid at initialization time);
* **pipelines** — in-order command queues into a sink process; hStreams
  maps each stream's compute slot onto one pipeline and regains
  out-of-order execution by *issuing* commands only when their
  dependences are satisfied;
* **buffers** — card-side backing store whose synchronous allocation cost
  is amortized by the 2 MB :class:`~repro.coi.buffer_pool.BufferPool`;
* **run-function** invocations and DMA transfers via SCIF.

Commands and transfers come in two forms with one body:
:meth:`COIPipeline.run_function` and :meth:`COIContext.dma` return an
event (the body started as its own engine process), while
:meth:`COIPipeline.run_steps` and :meth:`COIContext.dma_steps` hand the
body to a caller that runs it with ``yield from`` inside its own
process. The sim backend uses the second form, so each modelled action
is one engine process with the same calendar entries, in the same
order, as the nested-process form (DESIGN.md §4).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, Optional

from repro.coi.buffer_pool import BufferPool
from repro.coi.scif import ScifFabric
from repro.sim.engine import Engine, Event, Resource

__all__ = ["COIProcess", "COIPipeline", "COIBuffer", "COIContext"]

_pipe_ids = itertools.count()
_buf_ids = itertools.count()

#: One-time cost of spawning the sink process on a card (binary load,
#: connection setup). Paid at engine time zero during init.
PROCESS_SPAWN_S = 0.25

#: Sink-side cost of dispatching one run-function command.
RUN_FUNCTION_DISPATCH_S = 1.0e-6


class COIProcess:
    """The sink-side process executing run-functions in one domain."""

    def __init__(self, engine: Engine, domain: int):
        self.engine = engine
        self.domain = domain
        self.spawn_cost_s = PROCESS_SPAWN_S if domain != 0 else 0.0
        self.run_function_count = 0


class COIPipeline:
    """An in-order command queue into a sink process.

    Commands execute serially in arrival order; out-of-order behaviour is
    the caller's job (issue only when ready).
    """

    def __init__(self, context: "COIContext", process: COIProcess, name: str = ""):
        self.context = context
        self.process = process
        self.id = next(_pipe_ids)
        self.name = name or f"pipe{self.id}"
        self._slot = Resource(context.engine, capacity=1, name=self.name)

    def run_function(
        self,
        duration_s: float,
        on_start: Optional[Callable[[], None]] = None,
        gate: Optional[Resource] = None,
        gate_units: int = 0,
    ) -> Event:
        """Execute one command of ``duration_s`` sink-side seconds.

        The returned event fires at completion with the engine time the
        command began occupying the sink. ``on_start`` (if given) runs at
        that moment — used by the tracer to record true start times.
        ``gate`` (if given) is a shared resource — the sink domain's
        cores — from which ``gate_units`` must additionally be held while
        the command runs; this is how overlapping CPU masks and
        whole-device kernels contend for the same silicon.
        """
        steps = self.run_steps(duration_s, on_start, gate, gate_units)
        return self.context.engine.process(steps)

    def run_steps(
        self,
        duration_s: float,
        on_start: Optional[Callable[[], None]] = None,
        gate: Optional[Resource] = None,
        gate_units: int = 0,
    ) -> Generator:
        """:meth:`run_function` as a generator body for ``yield from``.

        Checks the arguments and sends the command descriptor now; the
        returned generator waits for it, runs the command and returns its
        start time. Run inline, it takes no calendar entry of its own:
        :meth:`run_function` only adds the process start, which sits on
        the calendar right behind the descriptor and does nothing
        observable (DESIGN.md §4).
        """
        if duration_s < 0:
            raise ValueError(f"duration must be >= 0, got {duration_s}")
        self.process.run_function_count += 1
        msg = self.context.fabric.message(0, self.process.domain)
        return self._run(msg, duration_s, on_start, gate, gate_units)

    def _run(
        self,
        msg: Event,
        duration_s: float,
        on_start: Optional[Callable[[], None]],
        gate: Optional[Resource],
        gate_units: int,
    ) -> Generator:
        engine = self.context.engine
        yield msg  # command descriptor reaches the sink
        yield self._slot.request()
        try:
            if gate is not None and gate_units > 0:
                yield gate.request(gate_units)
            try:
                start = engine.now
                if on_start is not None:
                    on_start()
                yield engine.timeout(RUN_FUNCTION_DISPATCH_S + duration_s)
            finally:
                if gate is not None and gate_units > 0:
                    gate.release(gate_units)
        finally:
            self._slot.release()
        return start


class COIBuffer:
    """Card-side backing store for one hStreams buffer instance."""

    def __init__(self, domain: int, nbytes: int):
        self.id = next(_buf_ids)
        self.domain = domain
        self.nbytes = nbytes
        self.released = False


class COIContext:
    """All COI state for one simulated platform."""

    def __init__(
        self,
        engine: Engine,
        fabric: ScifFabric,
        pool: BufferPool,
        domains: int,
    ):
        if domains < 1:
            raise ValueError("need at least the host domain")
        self.engine = engine
        self.fabric = fabric
        self.pool = pool
        self.processes: Dict[int, COIProcess] = {
            d: COIProcess(engine, d) for d in range(domains)
        }
        #: Total one-time init cost (host-blocking, paid once).
        self.init_cost_s = sum(p.spawn_cost_s for p in self.processes.values())

    def pipeline(self, domain: int, name: str = "") -> COIPipeline:
        """Create an in-order pipeline into ``domain``'s sink process."""
        try:
            proc = self.processes[domain]
        except KeyError:
            raise ValueError(f"no COI process in domain {domain}") from None
        return COIPipeline(self, proc, name=name)

    def buffer_create(self, domain: int, nbytes: int) -> "tuple[COIBuffer, float]":
        """Allocate sink-side backing; returns (buffer, host-blocking cost)."""
        cost = self.pool.acquire(domain, nbytes) if domain != 0 else 0.0
        return COIBuffer(domain, nbytes), cost

    def buffer_destroy(self, buf: COIBuffer) -> None:
        """Return the backing chunks to the pool."""
        if buf.released:
            raise ValueError(f"COI buffer {buf.id} already destroyed")
        buf.released = True
        if buf.domain != 0:
            self.pool.release(buf.domain, buf.nbytes)

    def dma(self, src: int, dst: int, nbytes: int) -> Event:
        """Bulk transfer between the host and a card (or host-local copy)."""
        if src == 0 and dst == 0:
            return self.fabric.host_copy(nbytes)
        return self.fabric.dma(src, dst, nbytes)

    def dma_steps(self, src: int, dst: int, nbytes: int) -> Generator:
        """:meth:`dma` as a generator body for ``yield from``.

        Takes the same calendar entries as yielding :meth:`dma`'s event,
        and returns ``nbytes``. That includes one zero-delay hop where
        :meth:`dma` starts its transfer process: the wire request must
        queue behind every entry already due at this instant, or
        same-time transfers reach the link in a different order
        (DESIGN.md §4).
        """
        if src == 0 and dst == 0:
            return (yield self.fabric.host_copy(nbytes))
        moves = self.fabric.dma_steps(src, dst, nbytes)
        yield self.engine.timeout(0.0)
        return (yield from moves)
