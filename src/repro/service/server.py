"""The asyncio service front-end over one shared runtime.

:class:`StreamService` owns the pieces a multi-tenant deployment needs
around an :class:`~repro.core.runtime.HStreams`:

* the :class:`~repro.service.admission.AdmissionController` (weighted
  fair queuing, per-tenant windows, bounded deferral queues);
* the session registry — every session's streams live in its tenant's
  namespace, so the core's isolation guarantees apply;
* the completion bridge: a
  :class:`~repro.core.scheduler.SchedulerObserver` that forwards
  terminal action records from backend worker threads onto the event
  loop, resolving submission futures and releasing admission slots.

The observer is the one piece that crosses threads. It is registered
with the scheduler and invoked with the scheduler lock held, so it does
nothing but schedule a loop callback — and it tolerates the loop being
gone: ``HStreams.fini()`` during an active session drains the backend
*synchronously* (namespaced streams included), firing completions
after the loop may already be closed. Those late completions release
no futures (nobody can await them anymore) but must not raise into the
backend worker, so the bridge drops them; the failure ledger and
metrics remain the durable record.

:func:`serve_unix` exposes the service over a local Unix socket with a
JSON-lines request/response protocol — enough transport for real
multi-process clients without pulling in an HTTP stack.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from repro.core.scheduler import SchedulerObserver
from repro.service.admission import (
    AdmissionController,
    ServiceError,
    TenantRejected,
    Ticket,
)
from repro.service.session import Session

__all__ = ["StreamService", "serve_unix"]


class _CompletionObserver(SchedulerObserver):
    """Forward terminal action records onto the service's event loop."""

    def __init__(self, service: "StreamService"):
        self._service = service

    def on_action_complete(self, action, record) -> None:
        # Called with the scheduler lock held, possibly from a backend
        # worker thread: look up, schedule, return. Never call back
        # into the runtime from here.
        svc = self._service
        key = id(action)
        if key not in svc._pending:
            return
        loop = svc._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(svc._resolve, key, record)
        except RuntimeError:
            # The loop closed underneath us (fini() tearing down while
            # work was in flight). The drain itself is synchronous and
            # deterministic — the record is already in the ledger and
            # metrics; there is just no awaiter left to wake.
            pass


class StreamService:
    """Multi-tenant front-end over one shared :class:`HStreams` runtime."""

    def __init__(
        self,
        runtime,
        capacity: int = 64,
        tenant_window: Optional[int] = 16,
        queue_limit: int = 1024,
        quota_headroom: int = 4,
    ):
        """``capacity`` bounds global in-flight admissions;
        ``tenant_window`` each tenant's share of them; ``queue_limit``
        each tenant's deferral backlog (overflow = 429). The scheduler
        namespace quota is set to ``tenant_window * quota_headroom`` as
        a backstop — admission is the real limiter, the quota catches
        anything that bypasses it.
        """
        self.runtime = runtime
        self._admission = AdmissionController(
            capacity,
            default_window=tenant_window,
            default_queue_limit=queue_limit,
        )
        self._quota_headroom = quota_headroom
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: Dict[int, Any] = {}
        self._sessions: Dict[int, Session] = {}
        self._next_session = 1
        self.closed = False
        self._observer = _CompletionObserver(self)
        with runtime.scheduler._lock:  # observers is a guarded field
            runtime.scheduler.observers.append(self._observer)
        # The sim backend's engine only advances inside source-thread
        # waits: submission futures need an explicit kick to resolve.
        self._needs_kick = hasattr(runtime.backend, "engine")

    # -- tenants & sessions ----------------------------------------------------

    def register_tenant(
        self,
        name: str,
        weight: float = 1.0,
        window: Optional[int] = None,
        queue_limit: Optional[int] = None,
    ) -> None:
        """Declare a tenant's fair-share weight, window, and backlog."""
        if not name:
            raise ServiceError("tenant name must be non-empty")
        self._admission.register(
            name, weight=weight, window=window, queue_limit=queue_limit
        )
        eff_window = window if window is not None else self._admission.default_window
        if eff_window is not None:
            self.runtime.set_namespace_quota(
                name, eff_window * self._quota_headroom
            )

    async def session(
        self, tenant: str, domain: int = 0, ncores: Optional[int] = 1
    ) -> Session:
        """Open a session: a private stream in the tenant's namespace."""
        self._check_open()
        if not tenant:
            raise ServiceError("tenant name must be non-empty")
        self._bind_loop()
        if tenant not in self._admission.tenants():
            self.register_tenant(tenant)
        sid = self._next_session
        self._next_session += 1
        stream = self.runtime.stream_create(
            domain,
            ncores=ncores,
            namespace=tenant,
            name=f"{tenant}.s{sid}",
        )
        session = Session(self, tenant, stream, sid)
        self._sessions[sid] = session
        return session

    def _destroy_session(self, session: Session) -> None:
        self._sessions.pop(session.id, None)
        if self.runtime.initialized and session.stream in self.runtime.streams:
            # close() already drained the session; the tenant's ledger
            # (its durable failure record) must not abort the teardown.
            self.runtime.stream_destroy(session.stream, raise_failures=False)

    # -- loop & completion bridge ----------------------------------------------

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ServiceError("service is bound to a different event loop")
        return loop

    def _now(self) -> float:
        """Admission clock: the backend's (virtual seconds on sim)."""
        return self.runtime.backend.now()

    def _track(self, sub) -> None:
        key = id(sub.event.action)
        self._pending[key] = sub
        # The action may have completed between enqueue and here (fast
        # kernels, capture backend): the observer saw no entry, so
        # resolve from the event's own record.
        if sub.event.is_complete():
            self._resolve(key, sub.event.record)

    def _resolve(self, key: int, record) -> None:
        sub = self._pending.pop(key, None)
        if sub is None:
            return  # already resolved inline; scheduled callback is stale
        sub.session._inflight.pop(key, None)
        self._release(sub.ticket)
        if not sub.done.done():
            sub.done.set_result(record if record is not None else sub.event.record)

    def _release(self, ticket: Ticket) -> None:
        if ticket.state != "admitted":
            return
        promoted = self._admission.release(ticket, now=self._now())
        for t in promoted:
            fut = t.data
            if fut is not None and not fut.done():
                fut.set_result(None)

    def _kick(self) -> None:
        """Advance the sim backend so pending completions fire.

        Virtual time only moves inside source-thread waits; draining
        with a scope no failure can match surfaces nothing (each
        tenant's errors stay in its ledger for scoped observation) but
        runs every in-flight action to its terminal state.
        """
        if not self._needs_kick or not self.runtime.initialized:
            return
        try:
            self.runtime.backend.wait_all(scope="\x00service.kick")
        except Exception:
            # Deadlock/timeout diagnostics surface on the caller's own
            # scoped waits; the kick is only a clock pump.
            pass

    # -- observability ---------------------------------------------------------

    def tenant_metrics(self, tenant: str) -> Dict[str, Any]:
        """One tenant's admission + runtime counters + ledger depth."""
        adm = self._admission.snapshot()["tenants"].get(tenant, {})
        runtime_block: Dict[str, Any] = {}
        if self.runtime.initialized:
            runtime_block = (
                self.runtime.metrics().get("namespaces", {}).get(tenant, {})
            )
        return {
            "tenant": tenant,
            "admission": adm,
            "runtime": runtime_block,
            "errors": len(self.runtime.failure_errors(tenant)),
        }

    def metrics(self) -> Dict[str, Any]:
        """Service-wide snapshot: admission state plus per-tenant blocks."""
        snap = self._admission.snapshot()
        return {
            "capacity": snap["capacity"],
            "inflight": snap["inflight"],
            "sessions": len(self._sessions),
            "tenants": {
                name: self.tenant_metrics(name) for name in snap["tenants"]
            },
        }

    # -- lifecycle -------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise ServiceError("service is closed")

    async def close(self) -> None:
        """Close every session (draining each), then detach from the runtime.

        The runtime itself stays up — the service is a front-end, not
        the owner; callers ``fini()`` the runtime separately.
        """
        if self.closed:
            return
        self.closed = True
        for session in list(self._sessions.values()):
            await session.close()
        try:
            with self.runtime.scheduler._lock:
                self.runtime.scheduler.observers.remove(self._observer)
        except ValueError:  # pragma: no cover - double close
            pass


# -- transport -------------------------------------------------------------------


async def _handle_connection(
    service: StreamService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON-lines request/response, in order.

    Ops: ``open`` (tenant) -> session id; ``submit`` (session, kernel,
    args) -> terminal record summary; ``drain`` (session); ``metrics``
    (tenant); ``close`` (session). Admission overflow returns
    ``{"ok": false, "code": 429}`` instead of an exception.
    """
    sessions: Dict[int, Session] = {}

    async def dispatch(req: Dict[str, Any]) -> Dict[str, Any]:
        op = req.get("op")
        if op == "open":
            session = await service.session(
                str(req["tenant"]),
                domain=int(req.get("domain", 0)),
                ncores=req.get("ncores", 1),
            )
            sessions[session.id] = session
            return {"ok": True, "session": session.id}
        if op == "metrics":
            return {"ok": True, "metrics": service.tenant_metrics(str(req["tenant"]))}
        if op not in ("submit", "drain", "close"):
            return {"ok": False, "code": 400, "error": f"unknown op {op!r}"}
        session = sessions.get(int(req.get("session", -1)))
        if session is None:
            return {"ok": False, "code": 404, "error": "unknown session"}
        if op == "submit":
            sub = await session.submit(
                str(req["kernel"]),
                args=tuple(req.get("args", ())),
                admission_cost=float(req.get("cost", 1.0)),
            )
            record = await sub.done
            return {
                "ok": record.state == "complete",
                "state": record.state,
                "error": record.error,
                "admit_latency": sub.ticket.admit_latency,
            }
        if op == "drain":
            await session.drain()
            return {"ok": True, "errors": len(session.errors())}
        await session.close()
        sessions.pop(session.id, None)
        return {"ok": True}

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                req = json.loads(line)
                resp = await dispatch(req)
            except TenantRejected as exc:
                resp = {
                    "ok": False,
                    "code": 429,
                    "error": str(exc),
                    "queued": exc.queued,
                }
            except (ServiceError, KeyError, ValueError) as exc:
                resp = {"ok": False, "code": 400, "error": str(exc)}
            writer.write(json.dumps(resp).encode() + b"\n")
            await writer.drain()
    finally:
        for session in list(sessions.values()):
            await session.close()
        writer.close()


async def serve_unix(service: StreamService, path: str) -> asyncio.AbstractServer:
    """Serve the JSON-lines protocol on a Unix socket at ``path``."""
    service._bind_loop()
    return await asyncio.start_unix_server(
        lambda r, w: _handle_connection(service, r, w), path=path
    )
