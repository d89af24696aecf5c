"""The memory subsystem: instance lifecycle, coherence, and eviction.

The paper's buffer abstraction (§II) is a *memory management* layer:
per-domain physical instantiation behind one proxy address, usage
properties, and incoherent instances whose movement the program
controls. :class:`MemoryManager` makes that layer first-class — it is
the single authority for

* **instance lifecycle** — every ``buf.instances`` mutation and every
  byte of per-domain capacity accounting happens here (the runtime,
  the backends, and the capture layer all route through it);
* **coherence** — a per-instance ``INVALID → VALID → DIRTY`` state
  machine (:class:`BufferCoherence`), committed from scheduler
  completion callbacks and shadowed by an enqueue-time *expected*
  layer that the host thread can consult before completions land;
* **transfer elision** — an ``enqueue_xfer`` whose destination
  instance is already expected-valid over the operand range completes
  without moving bytes (it still participates in dependence ordering),
  generalizing the host-as-target aliasing optimization of paper §V;
* **pressure-driven eviction** — on capacity overflow a pluggable
  :class:`EvictionPolicy` (``manual`` = fail, today's behavior;
  ``lru`` = evict clean, non-busy instances first) runs before
  :class:`~repro.core.errors.HStreamsOutOfMemory` is raised;
* **allocation cost** — the sim backend's COI 2 MB
  :class:`~repro.coi.buffer_pool.BufferPool` attaches here, so pool
  hit-rates land in the same ``metrics()["memory"]`` block as the
  elision and eviction counters.

Two coherence layers, on purpose
--------------------------------

Committed state (``valid`` / ``dirty``) transitions only when the
scheduler reports an action *complete* — under the sim backend that is
during engine runs, i.e. at synchronizations. Elision, however, must be
decided on the host thread at *enqueue* time, when the data-moving
actions it is redundant with may still be in flight. The ``expected``
layer tracks validity as of everything already enqueued (program order
on the single source thread), which is exactly the state the new
transfer would observe after its stream-ordered predecessors run. The
offline lint passes (:mod:`repro.analysis.lints`) replay the same
committed transitions over a captured trace, which is why
:class:`BufferCoherence` and :func:`apply_action_writes` live here and
not in the analyzer.

Locking: the manager shares the scheduler's reentrant lock. A private
lock would deadlock — the host thread takes manager-then-scheduler
(busy queries), while completion callbacks arrive scheduler-first.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.actions import ActionKind, XferDirection
from repro.core.errors import (
    HStreamsBadArgument,
    HStreamsBusy,
    HStreamsNotFound,
    HStreamsOutOfMemory,
)
from repro.core.scheduler import SchedulerObserver
from repro.core.sync import caller_locked, guarded_by

if TYPE_CHECKING:  # pragma: no cover
    from repro.coi.buffer_pool import BufferPool
    from repro.core.actions import Action, Operand
    from repro.core.buffer import Buffer
    from repro.core.graph import ActionRecord
    from repro.core.runtime import HStreams

__all__ = [
    "IntervalSet",
    "instance_accesses",
    "CoherenceState",
    "BufferCoherence",
    "apply_action_writes",
    "EvictionPolicy",
    "ManualEviction",
    "LruEviction",
    "EVICTION_POLICIES",
    "MemoryManager",
]


class IntervalSet:
    """A set of byte ranges: sorted, disjoint, half-open intervals."""

    __slots__ = ("_iv",)

    def __init__(self) -> None:
        self._iv: List[Tuple[int, int]] = []

    def __bool__(self) -> bool:
        return bool(self._iv)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "IntervalSet(" + ", ".join(f"[{s},{e})" for s, e in self._iv) + ")"

    def add(self, start: int, end: int) -> None:
        """Union ``[start, end)`` into the set."""
        if start >= end:
            return
        for s, e in self._iv:
            if s <= start and end <= e:  # already covered: nothing to merge
                return
        merged: List[Tuple[int, int]] = []
        for s, e in self._iv:
            if e < start or s > end:  # disjoint (touching ranges merge)
                merged.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        merged.append((start, end))
        merged.sort()
        self._iv = merged

    def subtract(self, start: int, end: int) -> None:
        """Remove ``[start, end)`` from the set."""
        if start >= end or not self._iv:
            return
        if end <= self._iv[0][0] or start >= self._iv[-1][1]:
            return  # entirely outside the covered span
        out: List[Tuple[int, int]] = []
        for s, e in self._iv:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if end < e:
                out.append((end, e))
        self._iv = out

    def covers(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` lies entirely inside the set."""
        if start >= end:
            return True
        return any(s <= start and end <= e for s, e in self._iv)

    def intersects(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` shares any byte with the set."""
        return any(s < end and start < e for s, e in self._iv)

    def clear(self) -> "IntervalSet":
        """Empty the set, returning the removed intervals as a new set."""
        old = IntervalSet()
        old._iv = self._iv
        self._iv = []
        return old

    def spans(self) -> List[Tuple[int, int]]:
        return list(self._iv)


def instance_accesses(
    action: "Action",
) -> Iterator[Tuple[int, "Operand", bool, bool]]:
    """The physical buffer-instance accesses an action performs.

    Yields ``(domain, operand, reads, writes)``. Compute tasks touch
    their operands in the sink domain; a transfer reads one endpoint's
    instance and writes the other's; host-as-target transfers alias
    away and touch nothing; sync actions only order, never access.
    *Elided* transfers also touch nothing — the manager decided at
    enqueue time (before dispatch and before capture recorded the
    action) that no bytes move, so for coherence replay and race
    pairing they are ordering-only, like syncs. The decision is stable
    across schedules: it depends only on single-threaded enqueue order.
    """
    stream = action.stream
    if stream is None:
        return
    if action.kind is ActionKind.COMPUTE:
        for op in action.operands:
            yield stream.domain, op, op.mode.reads, op.mode.writes
    elif action.kind is ActionKind.XFER and stream.domain != 0 and not action.elided:
        op = action.operands[0]
        if action.direction is XferDirection.SRC_TO_SINK:
            # Collective forwarding hops read a peer instance instead of
            # the host's; the write side is the sink either way.
            src = action.src_domain if action.src_domain is not None else 0
            yield src, op, True, False
            yield stream.domain, op, False, True
        else:
            yield stream.domain, op, True, False
            yield 0, op, False, True


class CoherenceState(enum.Enum):
    """Committed state of one buffer instance in one domain.

    ``INVALID`` — no meaningful data has landed at the instance;
    ``VALID`` — some range holds data the host has (or provided);
    ``DIRTY`` — a sink compute wrote ranges never transferred home.
    """

    INVALID = "invalid"
    VALID = "valid"
    DIRTY = "dirty"


class BufferCoherence:
    """Per-buffer coherence bookkeeping: one interval lattice per domain.

    ``valid``/``dirty``/``lost`` are the *committed* layer, transitioned
    by :func:`apply_action_writes` when actions finish (live manager) or
    in program order (offline lint replay). ``expected`` is the live
    manager's enqueue-time shadow of ``valid`` used for transfer
    elision; the lints never touch it.
    """

    __slots__ = (
        "buffer",
        "wrapped",
        "valid",
        "lost",
        "dirty",
        "expected",
        "last_touch",
        "charged",
    )

    def __init__(self, buffer: "Buffer") -> None:
        self.buffer = buffer
        self.wrapped = buffer.host_array is not None
        #: domain -> byte ranges holding meaningful data at the instance.
        self.valid: Dict[int, IntervalSet] = {}
        #: domain -> ranges valid at eviction, not re-transferred since.
        self.lost: Dict[int, IntervalSet] = {}
        #: domain -> sink-written ranges not yet transferred home.
        self.dirty: Dict[int, IntervalSet] = {}
        #: domain -> enqueue-time validity (drives transfer elision).
        self.expected: Dict[int, IntervalSet] = {}
        #: domain -> monotonic manager tick of the last touch (LRU).
        self.last_touch: Dict[int, int] = {}
        #: domain -> bytes charged against the domain's capacity.
        self.charged: Dict[int, int] = {}
        # The host instance is the authoritative source copy from
        # creation: materialize its expected set eagerly so later
        # cross-domain invalidations are never clobbered by a lazy
        # "starts full" initialization.
        self.expected_in(0)
        if self.wrapped:
            self.valid_in(0)

    def valid_in(self, domain: int) -> IntervalSet:
        iv = self.valid.get(domain)
        if iv is None:
            iv = self.valid[domain] = IntervalSet()
            if domain == 0 and self.wrapped:
                # Wrapping caller memory IS the host write: the whole
                # host instance holds meaningful data from creation.
                iv.add(0, self.buffer.nbytes)
        return iv

    def lost_in(self, domain: int) -> IntervalSet:
        iv = self.lost.get(domain)
        if iv is None:
            iv = self.lost[domain] = IntervalSet()
        return iv

    def dirty_in(self, domain: int) -> IntervalSet:
        iv = self.dirty.get(domain)
        if iv is None:
            iv = self.dirty[domain] = IntervalSet()
        return iv

    def expected_in(self, domain: int) -> IntervalSet:
        iv = self.expected.get(domain)
        if iv is None:
            iv = self.expected[domain] = IntervalSet()
            if domain == 0:
                # Host instances are populated at creation (zeroed, or
                # the wrapped caller array): the source copy is current
                # until a sink write invalidates it.
                iv.add(0, self.buffer.nbytes)
        return iv

    def dirty_union(self) -> IntervalSet:
        """All sink-dirty ranges, across domains."""
        out = IntervalSet()
        for iv in self.dirty.values():
            for s, e in iv.spans():
                out.add(s, e)
        return out

    def state(self, domain: int) -> CoherenceState:
        """The committed ``INVALID → VALID → DIRTY`` state in ``domain``."""
        if self.dirty.get(domain):
            return CoherenceState.DIRTY
        if self.valid.get(domain) or (domain == 0 and self.wrapped):
            return CoherenceState.VALID
        return CoherenceState.INVALID

    def note_evict(self, domain: int) -> None:
        """The instance in ``domain`` is gone: whatever was valid there
        is lost (a later implicit re-instantiation starts from zeros),
        and nothing is expected-valid there any more. Dirty ranges are
        left to the caller: the manager clears them (the fresh instance
        is clean), the lints keep them (the unretrieved result is still
        missing at the host)."""
        lost = self.lost_in(domain)
        for s, e in self.valid_in(domain).clear().spans():
            lost.add(s, e)
        exp = self.expected.get(domain)
        if exp is not None:
            exp.clear()


def apply_action_writes(
    coh_for: Callable[["Buffer"], BufferCoherence], action: "Action"
) -> None:
    """Apply one action's write-side committed coherence transitions.

    ``coh_for`` maps a buffer to its :class:`BufferCoherence`. The live
    manager calls this from the scheduler's completion callback; the
    offline :class:`~repro.analysis.lints.BufferStateLint` replays it in
    capture order, so both derive the identical state machine.
    """
    stream = action.stream
    for domain, op, _reads, writes in instance_accesses(action):
        if not writes:
            continue
        coh = coh_for(op.buffer)
        coh.valid_in(domain).add(op.offset, op.end)
        lost = coh.lost.get(domain)
        if lost is not None:
            lost.subtract(op.offset, op.end)
        if action.kind is ActionKind.COMPUTE and domain != 0:
            coh.dirty_in(domain).add(op.offset, op.end)
        elif action.kind is ActionKind.XFER and domain == 0 and stream is not None:
            # d2h landed: the host now sees the source sink's writes.
            coh.dirty_in(stream.domain).subtract(op.offset, op.end)


# -- eviction policies ---------------------------------------------------------


class EvictionPolicy:
    """Strategy for resolving capacity pressure in one domain.

    :meth:`select_victims` returns buffers whose ``domain`` instances
    the manager should evict to free at least ``need_bytes``; an empty
    list means "cannot help", and the manager raises
    :class:`~repro.core.errors.HStreamsOutOfMemory` as it always did.
    Policies must never select DIRTY instances (unretrieved sink
    results), busy instances (in-flight actions reference them), or
    host instances (domain 0 cannot be evicted).
    """

    name = "manual"

    def select_victims(
        self, manager: "MemoryManager", domain: int, need_bytes: int
    ) -> List["Buffer"]:
        return []


class ManualEviction(EvictionPolicy):
    """Today's behavior: the program evicts explicitly or fails."""

    name = "manual"


class LruEviction(EvictionPolicy):
    """Evict the least-recently-touched clean, non-busy instances."""

    name = "lru"

    def select_victims(
        self, manager: "MemoryManager", domain: int, need_bytes: int
    ) -> List["Buffer"]:
        if domain == 0:
            return []  # the host instance cannot be evicted
        scheduler = manager.runtime.scheduler
        candidates: List[Tuple[int, "Buffer", int]] = []
        for buf, coh in manager.coherences():
            if domain not in buf.instances:
                continue
            if coh.dirty.get(domain):
                continue  # DIRTY: sink results never transferred home
            if scheduler.inflight_touching(buf, domain):
                continue  # busy: in-flight actions still reference it
            candidates.append(
                (coh.last_touch.get(domain, 0), buf, coh.charged.get(domain, 0))
            )
        candidates.sort(key=lambda t: t[0])
        victims: List["Buffer"] = []
        freed = 0
        for _, buf, charge in candidates:
            victims.append(buf)
            freed += charge
            if freed >= need_bytes:
                return victims
        return []  # even evicting everything clean would not fit


EVICTION_POLICIES: Dict[str, type] = {
    "manual": ManualEviction,
    "lru": LruEviction,
}


# -- the manager ---------------------------------------------------------------


@guarded_by("_lock", "_coh", "_bufs", "_allocated", "_instances", "_tick")
class MemoryManager(SchedulerObserver):
    """Single authority over instance lifecycle, coherence, and capacity.

    Owned by :class:`~repro.core.runtime.HStreams` and registered as the
    first scheduler observer: enqueue callbacks maintain the expected
    layer (and decide elision before the backend executes the action),
    completion callbacks commit the ``INVALID → VALID → DIRTY`` machine.
    """

    def __init__(
        self,
        runtime: "HStreams",
        policy: Union[str, EvictionPolicy] = "manual",
        transfer_elision: bool = True,
    ) -> None:
        self.runtime = runtime
        if isinstance(policy, str):
            try:
                policy = EVICTION_POLICIES[policy]()
            except KeyError:
                raise HStreamsBadArgument(
                    f"unknown eviction policy {policy!r}; "
                    f"use one of {sorted(EVICTION_POLICIES)}"
                ) from None
        self.policy: EvictionPolicy = policy
        self.transfer_elision = transfer_elision
        self._coh: Dict[int, BufferCoherence] = {}  # buffer uid -> coherence
        self._bufs: Dict[int, "Buffer"] = {}
        self._allocated: Dict[int, int] = {}  # domain -> charged bytes
        self._instances: Dict[int, int] = {}  # domain -> live instance count
        self._tick = 0
        #: The sim backend's COI buffer pool, when attached.
        self.pool: Optional["BufferPool"] = None
        self.elided_transfers = 0
        self.elided_bytes = 0
        self.aliased_transfers = 0
        self.evictions = {"manual": 0, "pressure": 0}

    # The scheduler's reentrant lock, shared on purpose (see module
    # docstring). Only consulted after HStreams.__init__ completes.
    @property
    def _lock(self):
        return self.runtime.scheduler._lock

    # -- coherence queries ----------------------------------------------------

    @caller_locked("_lock")
    def coherence(self, buf: "Buffer") -> BufferCoherence:
        """The coherence record for ``buf`` (created on first use)."""
        coh = self._coh.get(buf.uid)
        if coh is None:
            coh = self._coh[buf.uid] = BufferCoherence(buf)
            self._bufs[buf.uid] = buf
        return coh

    @caller_locked("_lock")
    def coherences(self) -> Iterator[Tuple["Buffer", BufferCoherence]]:
        """All live ``(buffer, coherence)`` pairs."""
        for uid, coh in list(self._coh.items()):
            yield self._bufs[uid], coh

    def state(self, buf: "Buffer", domain: int) -> CoherenceState:
        """Committed coherence state of ``buf``'s instance in ``domain``."""
        with self._lock:
            return self.coherence(buf).state(domain)

    def allocated_bytes(self, domain: int) -> int:
        """Bytes charged against ``domain``'s capacity."""
        with self._lock:
            return self._allocated.get(domain, 0)

    @caller_locked("_lock")
    def _touch(self, coh: BufferCoherence, domain: int) -> None:
        self._tick += 1
        coh.last_touch[domain] = self._tick

    # -- instance lifecycle ---------------------------------------------------

    def instantiate(self, buf: "Buffer", domain: int) -> None:
        """Ensure ``buf`` has an instance in ``domain``.

        Charges the domain's capacity (zero for the aliased host
        instance of a wrapped array — it is the caller's own memory),
        runs the eviction policy under pressure, and stores the
        backend's payload. Raises
        :class:`~repro.core.errors.HStreamsOutOfMemory` when the policy
        cannot free enough clean, non-busy instances.
        """
        with self._lock:
            if buf.instantiated_in(domain):
                return
            dom = self.runtime.domain(domain)
            # Wrapped host arrays alias caller memory: zero-copy, and
            # zero charge against the host capacity.
            charge = 0 if (domain == 0 and buf.host_array is not None) else buf.nbytes
            capacity = int(dom.device.ram_gb * (1 << 30))
            if charge:
                have = self._allocated.get(domain, 0)
                if have + charge > capacity:
                    need = have + charge - capacity
                    for victim in self.policy.select_victims(self, domain, need):
                        self._evict(victim, domain, reason="pressure")
                    have = self._allocated.get(domain, 0)
                if have + charge > capacity:
                    raise HStreamsOutOfMemory(
                        f"domain {domain} ({dom.device.name}): instantiating "
                        f"{buf.name!r} ({buf.nbytes}B) exceeds "
                        f"{dom.device.ram_gb} GB"
                    )
            buf.instances[domain] = self.runtime.backend.make_instance(buf, domain)
            coh = self.coherence(buf)
            coh.charged[domain] = charge
            self._allocated[domain] = self._allocated.get(domain, 0) + charge
            self._instances[domain] = self._instances.get(domain, 0) + 1
            self._touch(coh, domain)

    def evict(self, buf: "Buffer", domain: int) -> None:
        """Release ``buf``'s instance in one (non-host) domain.

        The manual path behind
        :meth:`~repro.core.runtime.HStreams.buffer_evict`: refuses the
        host instance, unknown instances, and instances with in-flight
        references.
        """
        with self._lock:
            if domain == 0:
                raise HStreamsBadArgument("the host instance cannot be evicted")
            if not buf.instantiated_in(domain):
                raise HStreamsNotFound(
                    f"buffer {buf.name!r} has no instance in domain {domain}"
                )
            busy = self.runtime.scheduler.inflight_touching(buf, domain)
            if busy:
                names = ", ".join(repr(a.display) for a in busy[:4])
                raise HStreamsBusy(
                    f"cannot evict buffer {buf.name!r} from domain {domain}: "
                    f"{len(busy)} in-flight action(s) still reference it "
                    f"({names}); synchronize the streams touching it first"
                )
            self._evict(buf, domain, reason="manual")

    @caller_locked("_lock")
    def _evict(self, buf: "Buffer", domain: int, reason: str) -> None:
        """Tear one instance down (checks already done by the caller)."""
        self.runtime.backend.on_instance_evict(buf, domain)
        del buf.instances[domain]
        coh = self.coherence(buf)
        charge = coh.charged.pop(domain, buf.nbytes)
        self._allocated[domain] = self._allocated.get(domain, 0) - charge
        self._instances[domain] = self._instances.get(domain, 0) - 1
        coh.note_evict(domain)
        # A re-instantiated instance starts from zeros: clean. (The
        # offline lints keep their replica's dirty ranges so an evicted,
        # never-retrieved result still reports missing-d2h.)
        coh.dirty.pop(domain, None)
        self.evictions[reason] += 1
        self.runtime.scheduler.notify_buffer("evict", buf, domain=domain)

    def destroy(self, buf: "Buffer") -> None:
        """Release every instance of ``buf`` (capacity, backend state,
        coherence). Raises :class:`~repro.core.errors.HStreamsBusy` when
        in-flight actions still reference the buffer — destroying it
        would yank instances out from under running tasks."""
        with self._lock:
            busy = self.runtime.scheduler.inflight_touching(buf)
            if busy:
                names = ", ".join(repr(a.display) for a in busy[:4])
                raise HStreamsBusy(
                    f"cannot destroy buffer {buf.name!r}: {len(busy)} "
                    f"in-flight action(s) still reference it ({names}); "
                    "synchronize the streams touching it first"
                )
            self.runtime.backend.on_buffer_destroy(buf)
            coh = self._coh.pop(buf.uid, None)
            self._bufs.pop(buf.uid, None)
            for domain in list(buf.instances):
                charge = (
                    coh.charged.get(domain, buf.nbytes)
                    if coh is not None
                    else buf.nbytes
                )
                self._allocated[domain] = self._allocated.get(domain, 0) - charge
                self._instances[domain] = self._instances.get(domain, 0) - 1
            buf.instances.clear()

    # -- external host writes -------------------------------------------------

    def note_external_host_write(
        self, buf: "Buffer", offset: int = 0, nbytes: Optional[int] = None
    ) -> None:
        """Record that caller code wrote ``buf``'s host instance directly.

        Layers that stage bytes into the host instance outside any
        enqueued action (the CUDA/OpenCL model shims, the RTM hlib
        helpers) must call this so transfer elision never skips the
        refresh: the write makes every other domain's copy stale.
        """
        with self._lock:
            coh = self.coherence(buf)
            end = buf.nbytes if nbytes is None else offset + nbytes
            coh.expected_in(0).add(offset, end)
            coh.valid_in(0).add(offset, end)
            for domain, iv in coh.expected.items():
                if domain != 0:
                    iv.subtract(offset, end)
            self._touch(coh, 0)

    # -- scheduler observer callbacks -----------------------------------------

    @caller_locked("_lock")
    def on_enqueue(
        self, action: "Action", deps: List["Action"], dangling: List[Any]
    ) -> None:
        """Maintain the expected layer; decide elision before dispatch.

        Replayed actions arrive here exactly like enqueued ones (replay
        admits through the same stage), with ``elided`` cleared by the
        clone — so elision is decided against *this* replay's coherence
        state, not frozen at capture time: a transfer elided during the
        warm capture run really moves bytes on a replay that needs it,
        and vice versa.
        """
        stream = action.stream
        if stream is None:
            return
        if action.kind is ActionKind.COMPUTE:
            # Replay's hottest observer loop: coherence lookups hoisted,
            # LRU touches batched into one tick-counter writeback.
            sink = stream.domain
            coherence = self.coherence
            tick = self._tick
            for op in action.operands:
                coh = coherence(op.buffer)
                tick += 1
                coh.last_touch[sink] = tick
                if op.mode.writes and op.nbytes > 0:
                    coh.expected_in(sink).add(op.offset, op.end)
                    for domain, iv in coh.expected.items():
                        if domain != sink:
                            iv.subtract(op.offset, op.end)
            self._tick = tick
        elif action.kind is ActionKind.XFER:
            op = action.operands[0]
            coh = self.coherence(op.buffer)
            self._touch(coh, stream.domain)
            self._touch(coh, action.src_domain if action.src_domain is not None else 0)
            if stream.domain == 0:
                # Host-as-target: source and sink instances alias, the
                # backends already skip the copy (paper §V).
                self.aliased_transfers += 1
                return
            dst = (
                stream.domain
                if action.direction is XferDirection.SRC_TO_SINK
                else 0
            )
            dest = coh.expected_in(dst)
            if (
                self.transfer_elision
                and op.nbytes > 0
                and dest.covers(op.offset, op.end)
            ):
                # The destination already holds (or will hold, once its
                # stream-ordered producers run) the bytes this transfer
                # would move: complete it without moving anything. The
                # action still flows through the scheduler, so
                # dependence ordering is untouched.
                action.elided = True
                self.elided_transfers += 1
                self.elided_bytes += op.nbytes
            dest.add(op.offset, op.end)

    @caller_locked("_lock")
    def on_action_complete(self, action: "Action", record: "ActionRecord") -> None:
        """Commit the ``INVALID → VALID → DIRTY`` machine.

        Failed and cancelled actions do **not** commit: their write
        ranges are *rolled back* instead — subtracted from the expected,
        valid, and dirty layers — so a partially-landed write is treated
        as garbage. Rolling back keeps failure recovery honest: a
        re-enqueued transfer over a poisoned range is never elided (the
        destination is no longer expected-valid), and a failed sink
        compute leaves its instance clean rather than DIRTY, so
        pressure/manual eviction of poisoned instances stays legal.
        """
        if record.state in ("failed", "cancelled"):
            self._rollback_action(action)
        else:
            apply_action_writes(self.coherence, action)
        stream = action.stream
        if stream is not None:
            for op in action.operands:
                self._touch(self.coherence(op.buffer), stream.domain)

    @caller_locked("_lock")
    def _rollback_action(self, action: "Action") -> None:
        """Poison an unfinished action's write footprint (see above).

        Elided transfers are rolled back too, conservatively: their
        enqueue-time decision extended the expected layer, and the bytes
        they promised may descend from work that is now dead.
        """
        stream = action.stream
        if stream is None:
            return
        writes: List[Tuple[int, "Operand"]] = []
        if action.kind is ActionKind.COMPUTE:
            for op in action.operands:
                if op.mode.writes:
                    writes.append((stream.domain, op))
        elif action.kind is ActionKind.XFER and stream.domain != 0:
            op = action.operands[0]
            dst = (
                stream.domain
                if action.direction is XferDirection.SRC_TO_SINK
                else 0
            )
            writes.append((dst, op))
        for domain, op in writes:
            coh = self.coherence(op.buffer)
            for layer in (coh.expected, coh.valid, coh.dirty):
                iv = layer.get(domain)
                if iv is not None:
                    iv.subtract(op.offset, op.end)

    # -- allocation-cost layer ------------------------------------------------

    def attach_pool(self, pool: "BufferPool") -> None:
        """Adopt a backend's buffer pool as the allocation-cost layer."""
        self.pool = pool

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The ``metrics()["memory"]`` block.

        Keys: ``eviction_policy``, ``transfer_elision``,
        ``elided_transfers`` / ``elided_bytes`` (redundant transfers
        completed without moving bytes), ``aliased_transfers``
        (host-as-target aliasing), ``evictions`` (manual vs. pressure),
        per-domain ``allocated_bytes`` / ``capacity_bytes`` /
        ``instances``, and ``pool`` (COI buffer-pool hit rates, sim
        backend only).
        """
        with self._lock:
            domains = {
                dom.index: {
                    "allocated_bytes": self._allocated.get(dom.index, 0),
                    "capacity_bytes": int(dom.device.ram_gb * (1 << 30)),
                    "instances": self._instances.get(dom.index, 0),
                }
                for dom in self.runtime.domains
            }
            pool = None
            if self.pool is not None:
                fresh = self.pool.fresh_allocations
                recycled = self.pool.recycled_allocations
                total = fresh + recycled
                pool = {
                    "enabled": self.pool.enabled,
                    "chunk_bytes": self.pool.chunk_bytes,
                    "fresh_allocations": fresh,
                    "recycled_allocations": recycled,
                    "hit_rate": recycled / total if total else 0.0,
                }
            return {
                "eviction_policy": self.policy.name,
                "transfer_elision": self.transfer_elision,
                "elided_transfers": self.elided_transfers,
                "elided_bytes": self.elided_bytes,
                "aliased_transfers": self.aliased_transfers,
                "evictions": dict(self.evictions),
                "domains": domains,
                "pool": pool,
            }
