"""Sim backend: virtual-time execution on the calibrated platform models.

The shared :class:`~repro.core.scheduler.Scheduler` drives a
discrete-event engine:

* compute actions occupy their stream's COI pipeline (one at a time, in
  readiness order) for a duration from the device's kernel cost model,
  scaled to the stream's CPU-mask width;
* transfers ride the card's PCIe link direction through the SCIF fabric,
  paying the measured fixed runtime overhead first;
* host-as-target transfers are aliased away (zero cost);
* card-side buffer instantiation is *synchronous* — it blocks the virtual
  host clock, amortized by the COI 2 MB buffer pool when enabled.

The backend is a pure executor: the scheduler hands it an action only
once every dependence completed, and the action's one engine process
merely models *when* it occupies sink resources. Its COI command or
SCIF transfer runs inside that process with ``yield from``, not as a
nested process (DESIGN.md §4 gives the calendar order rule). An action
still cannot start before its (virtual) host enqueue time — the process first
waits until exactly ``t_enqueue`` if the engine is not there yet, which
reproduces the old submit-time arrival semantics (start = max(arrival,
deps done) either way).

The virtual host clock (``now()``) advances by the configured per-call
overheads during enqueues and jumps forward to the engine clock at each
synchronization, so an application's end-to-end virtual time includes
both source-side overheads and sink-side execution, exactly the costs the
paper's §III overhead analysis decomposes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.coi.buffer_pool import BufferPool
from repro.coi.coi import COIBuffer, COIContext, COIPipeline
from repro.coi.scif import ScifFabric
from repro.core.actions import Action, ActionKind, XferDirection
from repro.core.backend import Backend
from repro.core.buffer import Buffer
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsDeadlock,
    HStreamsInternalError,
    HStreamsTimedOut,
)
from repro.core.events import HEvent
from repro.sim.engine import Engine, Event, Resource
from repro.sim.kernels import time_on

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Virtual-time backend over the COI/SCIF simulation stack."""

    def attach(self, runtime) -> None:
        self.runtime = runtime
        cfg = runtime.config
        self.engine = Engine()
        self.topology = runtime.platform.make_fabric(self.engine)
        self.links = self.topology.ports
        host_bw = cfg.host_mem_bw_gbs or runtime.platform.host.mem_bw_gbs
        self.fabric = ScifFabric(self.engine, self.topology, host_mem_bw_gbs=host_bw)
        self.pool = BufferPool(
            cfg.pool_chunk_bytes, cfg.alloc_cost, enabled=cfg.use_buffer_pool
        )
        # The pool is the manager's allocation-cost layer: hit rates
        # land in metrics()["memory"] next to the capacity accounting.
        runtime.memory.attach_pool(self.pool)
        self.coi = COIContext(self.engine, self.fabric, self.pool, runtime.ndomains)
        # Per-domain core pools: a compute holds its stream's width while
        # it runs, so overlapping masks / whole-device kernels contend.
        self._domain_cores: Dict[int, Resource] = {
            d.index: Resource(
                self.engine, capacity=d.device.total_cores, name=f"cores:d{d.index}"
            )
            for d in runtime.domains
        }
        self._pipelines: Dict[int, COIPipeline] = {}
        self._coi_bufs: Dict[Tuple[int, int], COIBuffer] = {}
        self._host_now = 0.0
        self._rng = random.Random(cfg.seed)
        #: One-time init cost (COI process spawns); not charged to the
        #: clock — the paper's measurements exclude initialization.
        self.init_cost_s = self.coi.init_cost_s
        #: Cumulative host-blocking allocation cost (the §VII bottleneck).
        self.alloc_blocked_s = 0.0
        #: The handle every completion that no host wait asked for
        #: shares (see make_handle): an engine event that has fired.
        self._fired = Event(self.engine).trigger()

    def fabric_metrics(self) -> Dict[str, object]:
        """Interconnect counters for ``hs.metrics()['fabric']``."""
        out = self.topology.metrics()
        out["dma_count"] = self.fabric.dma_count
        out["message_count"] = self.fabric.message_count
        return out

    # -- handles & events -----------------------------------------------------

    def make_handle(self) -> None:
        # The engine event behind a completion is made only when a host
        # wait needs one (_handle): most completions are never waited
        # on one by one, and admission then allocates nothing here.
        return None

    def _handle(self, event: HEvent) -> Event:
        """The engine event ``event`` fires, made on first demand."""
        handle = event.handle
        if handle is None:
            handle = event.handle = Event(self.engine)
        return handle

    def event_done(self, event: HEvent) -> bool:
        handle = event.handle
        return handle is not None and handle.triggered

    def signal_completion(self, event: HEvent, when: float) -> None:
        handle = event.handle
        if handle is None:
            event.handle = self._fired
        else:
            handle.trigger()

    # -- provisioning -----------------------------------------------------------

    def make_stream(self, stream) -> None:
        self._pipelines[stream.id] = self.coi.pipeline(stream.domain, name=stream.name)

    def on_stream_destroy(self, stream) -> None:
        self._pipelines.pop(stream.id, None)

    def make_instance(self, buf: Buffer, domain: int) -> None:
        coi_buf, cost = self.coi.buffer_create(domain, buf.nbytes)
        self._coi_bufs[(buf.uid, domain)] = coi_buf
        if cost > 0:
            self._host_now += cost  # synchronous card-side allocation
            self.alloc_blocked_s += cost
        return None  # sim instances carry no data

    def on_buffer_destroy(self, buf: Buffer) -> None:
        for domain in list(buf.instances):
            coi_buf = self._coi_bufs.pop((buf.uid, domain), None)
            if coi_buf is not None:
                self.coi.buffer_destroy(coi_buf)

    def on_instance_evict(self, buf: Buffer, domain: int) -> None:
        coi_buf = self._coi_bufs.pop((buf.uid, domain), None)
        if coi_buf is not None:
            self.coi.buffer_destroy(coi_buf)

    # -- execution ----------------------------------------------------------------

    def execute(self, action: Action) -> None:
        """Model a dependence-free action as one engine process.

        The scheduler already satisfied the action's dependences; the
        process only enforces that nothing starts before the virtual
        host time at which the action was enqueued. Failures (cost-model
        errors, injected faults) never crash the engine loop: they are
        caught and reported through :meth:`Backend._finish` so the
        failure policy applies exactly as on the thread backend.
        """
        self.engine.process(
            self._proc(action, self.runtime.scheduler.enqueue_time(action))
        )

    def execute_after(self, action: Action, delay: float) -> None:
        """Retry dispatch: re-model ``action`` after ``delay`` virtual s."""
        self.engine.process(self._proc(action, self.engine.now + delay))

    def _proc(self, action: Action, not_before: float):
        if not_before > self.engine.now:
            yield self.engine.at(not_before)
        try:
            start = yield from self._execute(action)
            error: Optional[BaseException] = None
        except Exception as exc:  # noqa: BLE001 - routed to failure policy
            start, error = self.engine.now, exc
        end = self.engine.now
        self._finish(action, end, error, end - start)

    def _compute_duration(self, action: Action) -> float:
        assert action.stream is not None
        if action.cost is None:
            raise HStreamsBadArgument(
                f"compute {action.display!r} has no cost model; the sim "
                "backend needs a cost or a registered cost_fn"
            )
        device = self.runtime.platform.device(action.stream.domain)
        dur = time_on(device, action.cost, cores=action.stream.width)
        cfg = self.runtime.config
        if cfg.jitter > 0 and self._rng.random() < cfg.jitter_prob:
            dur *= 1.0 + cfg.jitter * self._rng.random()
        return dur + cfg.invoke_overhead_s

    def _execute(self, action: Action):
        """The action's sink-side steps, run inline in its process.

        Starts the action (:meth:`Backend._start`) once it holds its
        sink resources — a compute its COI pipeline slot and cores, so
        an injected fault fires only after a real start — and returns
        the start time. The COI command and the SCIF transfer run as
        generator bodies (``yield from``), not as nested processes; the
        calendar still sees the entries the nested form pushed that can
        change the schedule (DESIGN.md §4). Lane and label strings are
        built only when the tracer is on.
        """
        cfg = self.runtime.config
        engine = self.engine
        tracer = self.runtime.tracer
        assert action.stream is not None
        stream = action.stream
        if action.kind is ActionKind.COMPUTE:
            duration = self._compute_duration(action)
            start = yield from self._pipelines[stream.id].run_steps(
                duration,
                on_start=lambda: self._start(action, engine.now),
                gate=self._domain_cores[stream.domain],
                gate_units=stream.width,
            )
            if tracer.enabled:
                tracer.record(stream.lane, start, engine.now, action.display, "compute")
            return start
        start = engine.now
        self._start(action, start)
        if action.kind is ActionKind.XFER:
            if stream.domain == 0 or action.elided:
                # Aliased host-as-target transfer, or a redundant one
                # the memory manager elided: completes in zero virtual
                # time, still ordering its dependents.
                return start
            yield engine.timeout(cfg.transfer_overhead_s)
            src, dst = (
                (0, stream.domain)
                if action.direction is XferDirection.SRC_TO_SINK
                else (stream.domain, 0)
            )
            if action.src_domain is not None:
                src = action.src_domain
            wire_start = engine.now
            yield from self.coi.dma_steps(src, dst, action.nbytes)
            if tracer.enabled:
                if src != 0 and dst != 0:
                    lane = f"fabric:d{src}->d{dst}"
                else:
                    lane = f"pcie:d{stream.domain}:" + (
                        "h2d" if action.direction is XferDirection.SRC_TO_SINK else "d2h"
                    )
                tracer.record(lane, wire_start, engine.now, action.display, "transfer")
        elif action.kind is ActionKind.SYNC:
            yield engine.timeout(cfg.sync_overhead_s)
        else:  # pragma: no cover - exhaustive over ActionKind
            raise HStreamsInternalError(f"unknown action kind {action.kind}")
        return start

    # -- waiting -----------------------------------------------------------------------

    def wait_events(
        self,
        events: List[HEvent],
        wait_all: bool = True,
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> None:
        failure = self.runtime.scheduler.failure
        handles = [self._handle(e) for e in events]
        target = (
            self.engine.all_of(handles) if wait_all else self.engine.any_of(handles)
        )
        if timeout is not None:
            # Run only until the events complete; the clock advances to
            # the deadline solely on an actual timeout — a timed wait on
            # fast events no longer inflates virtual host time.
            self.engine.run_until_event(target, until=self._host_now + timeout)
            if not target.triggered:
                self._host_now = max(self._host_now, self.engine.now)
                failure.raise_pending(namespace=scope)
                raise HStreamsTimedOut(
                    f"virtual wait exceeded {timeout} s for {len(events)} event(s)"
                )
        else:
            self.engine.run_until_event(target)
        self._host_now = max(self._host_now, self.engine.now)
        failure.raise_pending(namespace=scope)

    def wait_all(
        self, timeout: Optional[float] = None, scope: Optional[str] = None
    ) -> None:
        failure = self.runtime.scheduler.failure
        if timeout is not None:
            deadline = self._host_now + timeout
            self.engine.run_to(deadline)
            if self.runtime.scheduler.outstanding > 0:
                self._host_now = deadline
                failure.raise_pending(namespace=scope)
                raise HStreamsTimedOut(
                    f"virtual wait_all exceeded {timeout} s with "
                    f"{self.runtime.scheduler.outstanding} action(s) outstanding"
                )
            self._host_now = max(self._host_now, self.engine.now)
            failure.raise_pending(namespace=scope)
            return
        self.engine.run()
        self._host_now = max(self._host_now, self.engine.now)
        # A recorded failure explains the drain better than the
        # dependents it poisoned ever could — surface it first.
        failure.raise_pending(namespace=scope)
        stalled = self.runtime.scheduler.find_stalled()
        if stalled:
            names = ", ".join(repr(a.display) for a in stalled[:8])
            raise HStreamsDeadlock(
                f"{len(stalled)} action(s) can never run: {names} "
                "(cross-stream wait on work that was never enqueued?)"
            )
        outstanding = self.runtime.scheduler.outstanding
        if outstanding > 0:  # pragma: no cover - engine drain invariant
            raise HStreamsInternalError(
                f"{outstanding} action(s) still in flight after engine drain"
            )

    def now(self) -> float:
        return self._host_now

    def advance_host(self, dt: float) -> None:
        self._host_now += dt
