"""Deterministic, seed-driven fault injection for the hStreams runtime.

Failure paths are the hardest runtime code to exercise: real kernels
rarely fail on demand, and never deterministically. This harness makes
every failure path reachable from tests and benchmarks, identically on
the thread and sim backends:

* a :class:`FaultPlan` declares *which* actions fail (:class:`FaultSpec`
  match rules over kind / kernel / label / stream, selecting the n-th
  match or a seeded random rate) and *how* (how many attempts fail,
  whether the error is transient, i.e. retryable under
  ``failure_policy="retry"``);
* :func:`inject_faults` attaches the plan to a live runtime as a
  :class:`FaultInjector`;
* the injector **arms** matching actions at enqueue time, from the
  scheduler's ``on_enqueue`` observer hook. Enqueues happen on the
  single source thread in program order on every backend, so the set of
  armed actions — including the seeded random draws — is a pure
  function of the program and the plan, never of backend timing;
* backends consult :meth:`FaultInjector.check` right before executing an
  action; an armed action raises :class:`InjectedFault` instead of
  running, once per remaining armed attempt.

``times=2`` with ``transient=True`` under ``failure_policy="retry"`` is
the canonical plan: the action fails twice, backs off, and succeeds on
the third attempt — on both backends with identical observable metrics.

Capture mode (``HStreams(capture_only=True)``) never executes actions,
so fault plans are inert under the hazard analyzer — a captured program
stays clean.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.errors import HStreamsBadArgument, HStreamsError, mark_transient
from repro.core.events import HEvent
from repro.core.scheduler import SchedulerObserver
from repro.core.sync import caller_locked, guarded_by, make_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action
    from repro.core.runtime import HStreams

__all__ = ["InjectedFault", "FaultSpec", "FaultPlan", "FaultInjector", "inject_faults"]

_KINDS = ("compute", "xfer", "sync", "*")


class InjectedFault(HStreamsError):
    """The error raised in place of executing a fault-armed action."""

    code = "HSTR_RESULT_INJECTED_FAULT"


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: which actions to fail, and how.

    Match fields (all must hold; empty/None means "any"):

    * ``kind`` — ``"compute"``, ``"xfer"``, ``"sync"``, or ``"*"``;
    * ``kernel`` — exact compute kernel name;
    * ``label`` — substring of the action's display label;
    * ``stream`` — stream id;
    * ``namespace`` — exact stream namespace (per-tenant arming: a
      plan targeting one tenant's namespace never arms on another's
      actions, whatever their kernels are named).

    Selection (mutually exclusive; neither means "every match"):

    * ``nth`` — arm only the n-th matching action (1-based, in enqueue
      order);
    * ``rate`` — arm each matching action with this probability, drawn
      from the plan's seeded RNG in enqueue order (deterministic for a
      given program + seed).

    Effect:

    * ``times`` — how many execution attempts of an armed action fail
      before it is allowed to succeed (>= ``retry_limit + 1`` makes the
      failure permanent even under the retry policy);
    * ``transient`` — mark the injected error retryable
      (:func:`~repro.core.errors.mark_transient`);
    * ``message`` — override the default error text.
    """

    kind: str = "*"
    kernel: str = ""
    label: str = ""
    stream: Optional[int] = None
    namespace: str = ""
    nth: Optional[int] = None
    rate: Optional[float] = None
    times: int = 1
    transient: bool = False
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise HStreamsBadArgument(
                f"FaultSpec kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.nth is not None and self.rate is not None:
            raise HStreamsBadArgument("FaultSpec takes nth or rate, not both")
        if self.nth is not None and self.nth < 1:
            raise HStreamsBadArgument("FaultSpec nth is 1-based")
        if self.rate is not None and not (0.0 <= self.rate <= 1.0):
            raise HStreamsBadArgument("FaultSpec rate must be in [0, 1]")
        if self.times < 1:
            raise HStreamsBadArgument("FaultSpec times must be >= 1")

    def matches(self, action: "Action") -> bool:
        """Whether ``action`` satisfies every match field."""
        if self.kind != "*" and action.kind.value != self.kind:
            return False
        if self.kernel and action.kernel != self.kernel:
            return False
        if self.label and self.label not in action.display:
            return False
        if self.stream is not None and (
            action.stream is None or action.stream.id != self.stream
        ):
            return False
        if self.namespace and (
            action.stream is None or action.stream.namespace != self.namespace
        ):
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of fault rules plus the RNG seed for rates."""

    specs: Sequence[FaultSpec] = field(default_factory=tuple)
    seed: int = 0


@guarded_by("_lock", "_armed", "_match_counts")
class FaultInjector(SchedulerObserver):
    """Live attachment of a :class:`FaultPlan` to one runtime.

    Arming happens on the source thread under the scheduler's lock
    (``on_enqueue``), but :meth:`check` fires from backend *worker*
    threads — so the armed table is lock-guarded.
    :func:`inject_faults` rebinds :attr:`_lock` to the owning
    scheduler's lock, making arm-vs-fire a single critical section.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        # Standalone injectors get a private lock; inject_faults swaps
        # in the owning scheduler's lock before attaching.
        self._lock = make_lock("faults")
        #: Per-spec count of matching actions seen, for ``nth``.
        self._match_counts: List[int] = [0] * len(plan.specs)
        #: Armed actions: seq -> (remaining failures, owning spec).
        self._armed: Dict[int, List] = {}
        #: Total faults actually raised by :meth:`check`. Written under
        #: the lock; unguarded so tests/benchmarks may read the counter
        #: after synchronizing (a GIL-atomic int read).
        self.injected = 0

    # -- arming (scheduler observer, single-threaded enqueue order) --------

    @caller_locked("_lock")
    def on_enqueue(
        self,
        action: "Action",
        deps: List["Action"],
        dangling: List[HEvent],
    ) -> None:
        # Arming happens at admission on the single source thread — for
        # replayed graphs that is the replay loop walking the template in
        # capture order, so ``nth`` counting and seeded ``rate`` draws
        # stay deterministic across enqueue and replay alike.
        for i, spec in enumerate(self.plan.specs):
            if not spec.matches(action):
                continue
            self._match_counts[i] += 1
            if spec.nth is not None:
                if self._match_counts[i] != spec.nth:
                    continue
            elif spec.rate is not None:
                # Drawn in enqueue order: deterministic across backends.
                if self._rng.random() >= spec.rate:
                    continue
            self._armed[action.seq] = [spec.times, spec]
            break  # first matching spec wins

    # -- firing (called by backends right before execution) ----------------

    def check(self, action: "Action") -> None:
        """Raise :class:`InjectedFault` if ``action`` is armed.

        Each call consumes one armed attempt; once ``times`` attempts
        have failed, the action executes normally (the
        transient-fault-recovers-after-retry scenario). Called from
        backend worker threads, so the armed table is consumed under
        the lock.
        """
        with self._lock:
            entry = self._armed.get(action.seq)
            if entry is None or entry[0] <= 0:
                return
            entry[0] -= 1
            self.injected += 1
            spec: FaultSpec = entry[1]
            attempt = spec.times - entry[0]
        msg = spec.message or (
            f"injected fault in {action.display!r} "
            f"(attempt {attempt} of {spec.times})"
        )
        err = InjectedFault(msg)
        if spec.transient:
            mark_transient(err)
        raise err

    def armed_seqs(self) -> List[int]:
        """Sequence numbers currently armed (tests and observability)."""
        with self._lock:
            return sorted(self._armed)


def inject_faults(runtime: "HStreams", plan: FaultPlan) -> FaultInjector:
    """Attach ``plan`` to ``runtime``; returns the live injector.

    Registers the injector as a scheduler observer (so it arms actions
    at enqueue) and as ``runtime.fault_injector`` (so backends consult
    it before executing). Injecting a second plan replaces the first.
    """
    injector = FaultInjector(plan)
    # Share the scheduler's lock: arming (on_enqueue, under it already)
    # and firing (check, from workers) become one critical section.
    injector._lock = runtime.scheduler._lock
    sanitizer = getattr(runtime, "sanitizer", None)
    if sanitizer is not None:
        sanitizer.instrument(injector)
    with runtime.scheduler._lock:
        old = runtime.fault_injector
        if old is not None and old in runtime.scheduler.observers:
            runtime.scheduler.observers.remove(old)
        runtime.scheduler.observers.append(injector)
        runtime.fault_injector = injector
    return injector
