"""Discrete-event simulation kernel.

A small, fast, generator-based event engine in the style of SimPy, built for
the vRIO reproduction.  Time is kept as an integer number of nanoseconds so
that event ordering is exact and runs are bit-reproducible.

The core concepts:

* :class:`Environment` owns the clock and the pending-event queue.
* :class:`Event` is a one-shot waitable.  Processes wait on events by
  yielding them.
* :class:`Process` wraps a generator.  Each ``yield`` suspends the process
  until the yielded event triggers; the event's value becomes the result of
  the ``yield`` expression.  A process is itself an event that triggers when
  the generator returns (with the generator's return value).
* :class:`Timeout` is an event that triggers after a fixed delay.
* :class:`Timer` is a re-armable event owned by one callback state machine:
  how hot models (cores, link channels) wait without allocating.

Scheduler
---------
Pending work lives in two structures:

* a plain FIFO deque of *ready* items — events triggered at the current
  time and zero-delay ``call_soon`` entries (the bulk of per-packet
  traffic: descriptor completions, queue hand-offs);
* a ``heapq`` list of ``(time, seq, item)`` entries for positive delays,
  ``seq`` a per-environment counter that keeps equal times FIFO.

The schedule is the total ``(time, seq)`` order over every item, where a
ready item's key is the time it was queued and a fresh ``seq``.  At any
timestamp every heap entry precedes every ready entry in that order —
heap entries at time ``t`` were scheduled before the clock reached ``t``,
ready entries only after — so dispatching "heap entries due at ``t``,
then the ready deque" at each time step is exactly that order, without
paying a heap push and pop for zero-delay work.

Example
-------
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5)
...     return env.now
>>> p = env.process(proc(env))
>>> env.run()
>>> p.value
5
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import (Any, Callable, Deque, Generator, Iterable, List,
                    Optional, Tuple, Union)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Timer",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "default_scheduler",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled, value fixed, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Waiting on an already-processed event resumes the waiter
    immediately (on the next scheduling step) with the stored value.

    Callbacks live in a flyweight pair — a single inline slot (``_cb0``,
    the common case: one waiter per event) plus an overflow list that is
    only allocated for the second waiter — so the per-packet event churn
    does not allocate a list per event.  Use :meth:`add_callback`,
    :meth:`prepend_callback` and :meth:`_discard_callback` to manage them;
    the :attr:`callbacks` view is read-only.
    """

    __slots__ = ("env", "_cb0", "_cbs", "_value", "_state", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb0: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._state = _PENDING
        self._ok = True

    # -- inspection --------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (callbacks may not have run)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (not failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    @property
    def callbacks(self) -> Tuple[Callable[["Event"], None], ...]:
        """Read-only view of the pending callbacks, in firing order."""
        first = self._cb0
        rest = self._cbs
        if first is None:
            return tuple(rest) if rest else ()
        if rest:
            return (first,) + tuple(rest)
        return (first,)

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        self.env._schedule_event(self)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        cb = self._cb0
        if cb is not None:
            self._cb0 = None
            cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for cb in cbs:
                cb(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self._state == _PROCESSED:
            # Already done: deliver on the next scheduling step to preserve
            # run-to-completion semantics.
            self.env.call_soon(lambda: callback(self))
        elif self._cbs is not None:
            self._cbs.append(callback)
        elif self._cb0 is None:
            self._cb0 = callback
        else:
            self._cbs = [callback]

    def prepend_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to fire before any already-registered one."""
        first = self._cb0
        if first is None and not self._cbs:
            self._cb0 = callback
            return
        cbs = self._cbs if self._cbs is not None else []
        if first is not None:
            cbs.insert(0, first)
        self._cbs = cbs
        self._cb0 = callback

    def _discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove one registration of ``callback`` (no-op if absent)."""
        if self._cb0 == callback:
            self._cb0 = None
            return
        cbs = self._cbs
        if cbs is not None:
            try:
                cbs.remove(callback)
            except ValueError:
                pass


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__: timeouts are the per-packet allocation
        # hot spot, and they are born triggered.
        self.env = env
        self._cb0 = None
        self._cbs = None
        self._value = value
        self._state = _TRIGGERED
        self._ok = True
        self.delay = delay
        env._schedule_event(self, delay)


class Timer(Event):
    """A re-armable event owned by one callback state machine.

    ``fire`` schedules the timer; on dispatch ``callback(timer)`` runs and
    the timer may fire again, even from inside that callback.  A firing is
    dispatched at the ``(time, seq)`` a :class:`Timeout` (or, at zero
    delay, :meth:`Event.succeed`) would get, so one long-lived timer can
    replace per-item timeouts without changing the schedule.
    """

    __slots__ = ("_callback",)

    def __init__(self, env: "Environment", callback: Callable[["Timer"], None]) -> None:
        super().__init__(env)
        self._callback = callback

    def fire(self, delay: int = 0, value: Any = None) -> None:
        """Dispatch the timer with ``value`` ``delay`` ns from now."""
        if self._state == _TRIGGERED:
            raise SimulationError("timer fired while still pending")
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        self._value = value
        self._state = _TRIGGERED
        self._cb0 = self._callback
        self.env._schedule_event(self, delay)


class Process(Event):
    """A running generator; also an event that triggers on completion."""

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "") -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off on the next scheduling step.
        env.call_soon(lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        waiting = self._waiting_on
        if waiting is not None:
            # Detach from the event we were waiting on.
            waiting._discard_callback(self._on_event)
            self._waiting_on = None
        self.env.call_soon(lambda: self._resume(None, Interrupt(cause)))

    # -- plumbing ----------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.is_alive:
            return
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
        if target.env is not self.env:
            raise SimulationError("yielded event belongs to another Environment")
        self._waiting_on = target
        target.add_callback(self._on_event)


class AllOf(Event):
    """Triggers when all given events have succeeded.

    Value is the list of the events' values in the given order.  Fails as
    soon as any constituent fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event.ok:
            # Detach from the still-outstanding children so a settled AllOf
            # holds no callbacks on long-lived events.
            for ev in self._events:
                if ev is not event:
                    ev._discard_callback(self._on_child)
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers when the first of the given events does.

    Value is a ``(event, value)`` tuple identifying the winner.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        # Detach from the losers: without this every losing event keeps the
        # settled AnyOf's callback registered forever, pinning it (and
        # firing into it) long after the race is decided.
        for ev in self._events:
            if ev is not event:
                ev._discard_callback(self._on_child)
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


def default_scheduler() -> str:
    """Name of the kernel's scheduler, recorded in run manifests."""
    return "ready+heap"


class Environment:
    """The simulation clock and scheduler.

    Time is an integer count of nanoseconds since the start of the run.
    Pending work lives in a FIFO ready deque (zero-delay items) and a
    ``heapq`` of ``(time, seq, item)`` entries (positive delays); see the
    module docstring for why "heap at ``now``, then ready" is the
    ``(time, seq)`` order.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0  # tie-breaker preserving FIFO order at equal times
        self._monitors: List[Any] = []
        # Split views of _monitors by capability; add_monitor/remove_monitor
        # keep all three in sync.  _monitors stays the union because its
        # emptiness drives the fast/monitored loop switch.
        self._step_monitors: List[Any] = []
        self._advance_monitors: List[Any] = []
        # Ready lane: items due at the current time, in FIFO order —
        # triggered events and zero-delay call_soon entries.
        self._ready: Deque[Union[Event, Callable[[], None]]] = deque()
        # Future items; seq is unique, so the item itself is never compared.
        self._heap: List[Tuple[int, int, Union[Event, Callable[[], None]]]] = []

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- monitoring --------------------------------------------------------

    def add_monitor(self, monitor: Any) -> None:
        """Attach an execution monitor.

        A monitor exposes either or both of two hooks.  ``on_step(now,
        item)`` is called after every scheduler step with the (possibly
        advanced) clock and the processed item — an :class:`Event` or,
        for ``call_soon`` entries, the bare callable.  ``on_advance(now)``
        is called whenever the clock strictly advances, *before* any item
        at the new timestamp dispatches — the hook windowed-telemetry
        timelines hang off, guaranteeing every observed sample is
        strictly older than ``now``.  The run loop is specialized at
        attach/detach time: with no monitors attached the engine runs a
        loop containing no monitor test at all, so production runs pay
        nothing.  Attaching mid-run takes effect at the next clock
        advance.
        """
        if monitor not in self._monitors:
            self._monitors.append(monitor)
            if hasattr(monitor, "on_step"):
                self._step_monitors.append(monitor)
            if hasattr(monitor, "on_advance"):
                self._advance_monitors.append(monitor)

    def remove_monitor(self, monitor: Any) -> None:
        """Detach a previously attached monitor (no-op if absent)."""
        for group in (self._monitors, self._step_monitors,
                      self._advance_monitors):
            try:
                group.remove(monitor)
            except ValueError:
                pass

    # -- scheduling --------------------------------------------------------

    def call_soon(self, fn: Callable[[], None], delay: int = 0) -> None:
        """Run ``fn()`` after ``delay`` ns (0 = this time step, FIFO)."""
        if delay > 0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (self._now + delay, seq, fn))
        elif delay == 0:
            self._ready.append(fn)
        else:
            raise SimulationError(f"negative call_soon delay: {delay}")

    # Triggered events (succeed/fail, Timeout, Timer.fire) are queued exactly
    # like callables, at the same (time, seq); dispatch tells them apart.
    _schedule_event = call_soon

    def schedule_at(self, at_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the absolute time ``at_ns``.

        The hook for externally planned occurrences — fault injections,
        campaign phase marks — that are specified in wall-clock simulation
        time rather than relative to the caller.
        """
        if at_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {at_ns} ns; clock is at {self._now} ns")
        self.call_soon(fn, delay=at_ns - self._now)

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled item."""
        heap = self._heap
        if heap and heap[0][0] == self._now:
            # Heap entries at the current time precede every ready item in
            # (time, seq) order (see the module docstring).
            item = heappop(heap)[2]
        elif self._ready:
            item = self._ready.popleft()
        elif heap:
            when = heap[0][0]
            self._now = when
            for monitor in self._advance_monitors:
                monitor.on_advance(when)
            item = heappop(heap)[2]
        else:
            raise IndexError("step from an empty schedule")
        if isinstance(item, Event):
            item._run_callbacks()
        else:
            item()
        for monitor in self._step_monitors:
            monitor.on_step(self._now, item)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the schedule empties or the clock would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until`` and
        any events scheduled for later remain pending.
        """
        if until is not None and until < self._now:
            raise SimulationError("cannot run backwards in time")
        while True:
            if self._monitors:
                if self._run_monitored(until):
                    return
            elif self._run_fast(until):
                return

    def _run_fast(self, until: Optional[int]) -> bool:
        """Monitor-free run loop; returns False to switch loops.

        The engine's hot path: per time step it drains the heap entries
        due at ``now``, then the ready deque, with ``Event._run_callbacks``
        inlined.  Nothing dispatched can land in the heap at ``now``
        (delays are strictly positive), so the heap drain is final once
        the ready drain starts.  A monitor attached mid-run takes effect
        before the next clock advance.
        """
        ready = self._ready
        heap = self._heap
        pop = heappop
        monitors = self._monitors
        now = self._now
        while True:
            while heap and heap[0][0] == now:
                item = pop(heap)[2]
                if isinstance(item, Event):
                    item._state = _PROCESSED
                    cb = item._cb0
                    if cb is not None:
                        item._cb0 = None
                        cb(item)
                    cbs = item._cbs
                    if cbs is not None:
                        item._cbs = None
                        for cb in cbs:
                            cb(item)
                else:
                    item()
            while ready:
                item = ready.popleft()
                if isinstance(item, Event):
                    item._state = _PROCESSED
                    cb = item._cb0
                    if cb is not None:
                        item._cb0 = None
                        cb(item)
                    cbs = item._cbs
                    if cbs is not None:
                        item._cbs = None
                        for cb in cbs:
                            cb(item)
                else:
                    item()
            if monitors:
                return False
            if not heap:
                if until is not None:
                    self._now = until
                return True
            now = heap[0][0]
            if until is not None and now > until:
                self._now = until
                return True
            self._now = now

    def _run_monitored(self, until: Optional[int]) -> bool:
        """Per-step run loop notifying monitors; returns False to switch.

        Dispatches in the fast loop's order, one item per iteration:
        ``on_advance`` fires when the clock strictly advances, before
        anything at the new time dispatches, and ``on_step`` after every
        item.  Detaching the last monitor hands over to the fast loop at
        the next item.
        """
        ready = self._ready
        heap = self._heap
        pop = heappop
        monitors = self._monitors
        step_monitors = self._step_monitors
        advance_monitors = self._advance_monitors
        while monitors:
            now = self._now
            if heap and heap[0][0] == now:
                item = pop(heap)[2]
            elif ready:
                item = ready.popleft()
            else:
                if heap:
                    t = heap[0][0]
                    if until is None or t <= until:
                        self._now = t
                        # Advance hooks fire before anything at t
                        # dispatches, so a timeline closing windows here
                        # sees only state produced strictly before t.
                        for monitor in advance_monitors:
                            monitor.on_advance(t)
                        continue
                if until is not None and until > now:
                    self._now = until
                    for monitor in advance_monitors:
                        monitor.on_advance(until)
                return True
            if isinstance(item, Event):
                item._run_callbacks()
            else:
                item()
            for monitor in step_monitors:
                monitor.on_step(now, item)
        return False

    def peek(self) -> Optional[int]:
        """Time of the next scheduled item, or None if none is pending."""
        if self._ready:
            return self._now
        return self._heap[0][0] if self._heap else None
