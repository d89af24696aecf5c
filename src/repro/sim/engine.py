"""Deterministic discrete-event simulation engine.

A small, dependency-free event core in the style of SimPy: a virtual clock,
an ordered event calendar, generator-based *processes* that ``yield`` events
to wait on, and FIFO *resources* for modeling exclusive units (a stream's
compute slot, a PCIe link direction, a DMA engine).

Determinism: every calendar entry carries a monotonically increasing
sequence number, so entries due at the same timestamp fire in insertion
order and a given simulation always produces the identical schedule.

The calendar holds only what can change the schedule: timeouts, resource
grants, zero-delay triggers, and one entry per process start. A process
starts from its own entry (no start event, no callback), and a helper a
process runs with ``yield from`` costs no entry at all — which is how the
layers above run each modelled action as one process. Removing an entry
is safe only when nothing can fire between it and the entry pushed just
before it; DESIGN.md §4 ("Determinism") states the rule and which hops
the plumbing keeps because of it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "SimError",
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Resource",
]

#: Calendar value marking a process's start entry.
_START = object()


class SimError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *untriggered*; calling :meth:`trigger` (or
    :meth:`fail`) makes it fire at the current simulation time, invoking
    all registered callbacks in registration order. Processes wait on
    events by yielding them.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self.name = name

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload the event fired with."""
        if not self._triggered:
            raise SimError(f"event {self!r} has not been triggered")
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value`` at the current time."""
        if self._triggered:
            raise SimError(f"event {self!r} already triggered")
        self._fire(value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event as failed; waiters receive/raise ``exc``."""
        if self._triggered:
            raise SimError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._ok = False
        self._fire(exc)
        return self

    def _fire(self, value: Any) -> None:
        """Fire an untriggered event: record ``value``, run the callbacks."""
        self._triggered = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for fn in callbacks:
            fn(self)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event fires.

        If the event already fired, the callback runs immediately.
        """
        if self._triggered:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _label(self) -> str:
        return self.name or self.__class__.__name__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{self._label()} {state} @{self.engine.now:.6f}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        engine._schedule_trigger(self, delay, value)


class Process(Event):
    """A generator-driven simulation process.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires, receiving its value (or having its exception
    raised inside the generator). The process is itself an event that fires
    with the generator's return value when it finishes.

    A process takes its first step from its own calendar entry, due now
    and behind every entry already queued. A yielded event that already
    fired resumes the generator at once, in the same step.
    """

    __slots__ = ("_gen",)

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(engine, name=name)
        self._gen = gen
        engine._schedule_trigger(self, 0.0, _START)

    @property
    def is_alive(self) -> bool:
        """Whether the process generator has not yet finished."""
        return not self._triggered

    def _label(self) -> str:
        return self.name or getattr(self._gen, "__name__", "process")

    # -- internal machinery -------------------------------------------------

    def _resume(self, event: Optional[Event]) -> None:
        """Continue the generator with ``event``'s outcome (None: start)."""
        if event is None:
            self._run(None, True)
        else:
            self._run(event._value, event._ok)

    def _run(self, value: Any, ok: bool) -> None:
        """Drive the generator until it parks on a pending event or ends."""
        gen = self._gen
        while True:
            try:
                target = gen.send(value) if ok else gen.throw(value)
            except StopIteration as stop:
                self._fire(stop.value)
                return
            if not isinstance(target, Event):
                raise SimError(
                    f"process {self._label()!r} yielded {target!r}; processes "
                    "must yield Event instances"
                )
            if not target._triggered:
                target.callbacks.append(self._resume)
                return
            value, ok = target._value, target._ok


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str):
        super().__init__(engine, name=name)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if not isinstance(ev, Event):
                raise SimError(f"{name} requires Event instances, got {ev!r}")
        if not self._events:
            engine._schedule_trigger(self, 0.0, {})
            return
        for ev in self._events:
            if not ev.triggered:
                self._pending += 1
        if self._satisfied():
            engine._schedule_trigger(self, 0.0, self._collect())
        else:
            for ev in self._events:
                if not ev.triggered:
                    ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._satisfied():
            self.trigger(self._collect())

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self._events if ev.triggered and ev.ok}

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when any one of the given events has fired."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, "any_of")

    def _satisfied(self) -> bool:
        return self._pending < len(self._events) or not self._events


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, "all_of")

    def _satisfied(self) -> bool:
        return self._pending == 0


class Engine:
    """The simulation clock and event calendar."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._seq = 0

    # -- event factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event bound to this engine."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Event:
        """Create an event firing at absolute time ``when`` (>= now).

        Exact where ``timeout(when - now)`` is not: ``now + (when -
        now)`` can round to one ulp below ``when``.
        """
        if when < self.now:
            raise SimError(f"at({when}) is before now ({self.now})")
        event = Event(self)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event, value))
        return event

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulation process."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: fires when any child event fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: fires when every child event has fired."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule_trigger(self, event: Event, delay: float, value: Any) -> None:
        """Arrange for ``event`` to trigger with ``value`` after ``delay``."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event, value))

    # -- execution ----------------------------------------------------------

    def step(self) -> float:
        """Advance to and fire the next calendar entry; return its time."""
        if not self._heap:
            raise SimError("step() on an empty event calendar")
        when, _seq, event, value = heapq.heappop(self._heap)
        self.now = when
        if not event._triggered:
            if value is _START:
                event._resume(None)
            else:
                event._fire(value)
        return when

    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendar drains or the clock passes ``until``.

        Returns the final simulation time.
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return until
            self.step()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_to(self, until: float) -> float:
        """Fire every calendar entry scheduled at or before ``until``.

        Unlike :meth:`run`, the clock stays at the last fired entry — it
        does not jump to ``until`` when the calendar drains early.
        Returns the final simulation time.
        """
        while self._heap and self._heap[0][0] <= until:
            self.step()
        return self.now

    def run_until_event(
        self, event: Event, limit: float = 1e12, until: Optional[float] = None
    ) -> Any:
        """Run until ``event`` fires; return its value or raise its failure.

        With ``until`` set, stop stepping once the next calendar entry
        lies past it (or the calendar drains first): the clock advances
        exactly to ``until`` and ``None`` is returned — a *timeout*, not
        an error — so a timed wait never simulates past its deadline
        when the event fires earlier, and never deadlocks when it cannot
        fire at all.
        """
        while not event._triggered:
            if until is not None and (not self._heap or self._heap[0][0] > until):
                if until > self.now:
                    self.now = until
                return None
            if not self._heap:
                raise SimError(
                    f"deadlock: event {event!r} can never fire (calendar empty)"
                )
            if self.now > limit:
                raise SimError(f"simulation exceeded time limit {limit}")
            self.step()
        if not event._ok:
            raise event._value
        return event._value

    @property
    def pending_count(self) -> int:
        """Number of entries still on the event calendar."""
        return len(self._heap)


class Resource:
    """A FIFO resource with integer capacity and multi-unit requests.

    Used to model exclusive or limited units: a stream's compute slot
    (capacity 1), a pool of DMA engines, a device's cores (a task
    acquires as many units as its stream's CPU-mask width). Grants are
    strictly FIFO and head-blocking — a large request at the head of the
    queue is never overtaken by a smaller one behind it — so schedules
    stay deterministic and starvation-free.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Tuple[Event, int]] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a grant."""
        return len(self._waiters)

    def request(self, units: int = 1) -> Event:
        """Ask for ``units``; the returned event fires when granted."""
        if units < 1 or units > self.capacity:
            raise SimError(
                f"{self.name!r}: request of {units} units outside "
                f"1..{self.capacity}"
            )
        req = Event(self.engine)
        if self._in_use + units <= self.capacity and not self._waiters:
            self._in_use += units
            self.engine._schedule_trigger(req, 0.0, self)
        else:
            self._waiters.append((req, units))
        return req

    def release(self, units: int = 1) -> None:
        """Return ``units``, granting queued requests in FIFO order."""
        if units < 1 or self._in_use < units:
            raise SimError(
                f"release({units}) of resource {self.name!r} with "
                f"{self._in_use} in use"
            )
        self._in_use -= units
        waiters = self._waiters
        while waiters:
            ev, need = waiters[0]
            if self._in_use + need > self.capacity:
                break  # head-blocking FIFO
            waiters.popleft()
            self._in_use += need
            self.engine._schedule_trigger(ev, 0.0, self)
