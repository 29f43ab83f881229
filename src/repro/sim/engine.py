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
The default scheduler splits pending work across two structures:

* a plain FIFO deque of *ready* items — events triggered at the current
  time and zero-delay ``call_soon`` entries (the bulk of per-packet
  traffic: descriptor completions, queue hand-offs);
* a :class:`~repro.sim.calqueue.CalendarQueue` of future timers.

At any timestamp every calendar entry precedes every ready entry in the
legacy heap's ``(time, seq)`` order — calendar entries at time ``t`` were
scheduled before the clock reached ``t``, ready entries only after — so
draining "calendar at ``t``, then ready" reproduces the heap's schedule
exactly.  The pre-overhaul binary-heap scheduler is retained behind
``Environment(scheduler="heap")`` and is the reference implementation for
the differential test suite.

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

import heapq
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Deque, Generator, Iterable, Iterator,
                    List, Optional, Tuple, Union)

from .calqueue import CalendarQueue

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
    "SCHEDULERS",
    "default_scheduler",
    "set_default_scheduler",
    "scheduler_override",
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


SCHEDULERS = ("calendar", "heap")

_DEFAULT_SCHEDULER: List[str] = ["calendar"]


def default_scheduler() -> str:
    """The scheduler new :class:`Environment` instances use by default."""
    return _DEFAULT_SCHEDULER[0]


def set_default_scheduler(name: str) -> str:
    """Set the process-wide default scheduler; returns the previous one."""
    if name not in SCHEDULERS:
        raise SimulationError(
            f"unknown scheduler {name!r}; expected one of {SCHEDULERS}")
    previous = _DEFAULT_SCHEDULER[0]
    _DEFAULT_SCHEDULER[0] = name
    return previous


@contextmanager
def scheduler_override(name: str) -> Iterator[None]:
    """Force every :class:`Environment` built in this block onto ``name``.

    The differential test harness uses this to steer scenario builders —
    which construct their own environments internally — onto the legacy
    heap scheduler without threading a parameter through every layer.
    """
    previous = set_default_scheduler(name)
    try:
        yield
    finally:
        set_default_scheduler(previous)


class Environment:
    """The simulation clock and scheduler.

    Time is an integer count of nanoseconds since the start of the run.

    ``scheduler`` selects the pending-queue implementation: ``"calendar"``
    (default) is the bucket-queue fast path, ``"heap"`` the pre-overhaul
    binary heap kept as the differential-testing reference.  Both produce
    byte-identical schedules.
    """

    def __init__(self, scheduler: Optional[str] = None) -> None:
        if scheduler is None:
            scheduler = _DEFAULT_SCHEDULER[0]
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
        self._now: int = 0
        self._seq: int = 0  # tie-breaker preserving FIFO order at equal times
        self._monitors: List[Any] = []
        # Split views of _monitors by capability; add_monitor/remove_monitor
        # keep all three in sync.  _monitors stays the union because its
        # emptiness drives the fast/monitored loop switch.
        self._step_monitors: List[Any] = []
        self._advance_monitors: List[Any] = []
        self.scheduler = scheduler
        if scheduler == "heap":
            # Entries are (time, seq, event-or-callable); seq is unique, so
            # the item itself is never compared.
            self._heap: List[Tuple[int, int, Any]] = []
            # Route every scheduling/execution entry point to the legacy
            # implementations; the calendar structures are never created.
            self._schedule_event = self._schedule_heap  # type: ignore[method-assign]
            self.call_soon = self._schedule_heap  # type: ignore[method-assign]
            self.step = self._step_heap  # type: ignore[method-assign]
            self.run = self._run_heap  # type: ignore[method-assign]
            self.peek = self._peek_heap  # type: ignore[method-assign]
        else:
            # Ready lane: items due at the current time, in FIFO order —
            # triggered events and zero-delay call_soon entries.
            self._ready: Deque[Union[Event, Callable[[], None]]] = deque()
            self._cal = CalendarQueue()

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
        # Duplicates CalendarQueue.push's common case (a future bucket
        # within the horizon, ahead of the scan) to save a call frame on the
        # per-timer hot path; anything else falls through to the real push.
        # The condition mirrors push() exactly.
        if delay:
            seq = self._seq + 1
            self._seq = seq
            time = self._now + delay
            cal = self._cal
            bidx = time >> cal._shift
            if cal._cursor < bidx < cal._floor + cal._nbuckets:
                free = cal._free
                if free:
                    e = free.pop()
                    e[0] = time
                    e[1] = seq
                    e[2] = fn
                else:
                    e = [time, seq, fn]
                cal._buckets[bidx & cal._mask].append(e)
                count = cal._count + 1
                cal._count = count
                if count > cal._grow_at:
                    cal._maybe_grow(count)
                return
            cal.push(time, seq, fn)
        else:
            self._ready.append(fn)

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
        cal = self._cal
        when = cal.min_time()
        if when is not None and when == self._now:
            # Calendar entries at the current time precede every ready
            # item in (time, seq) order (see the module docstring).
            item = cal.pop()[2]
        elif self._ready:
            when = self._now
            item = self._ready.popleft()
        elif when is None:
            raise IndexError("step from an empty schedule")
        else:
            if when < self._now:
                raise SimulationError("time went backwards")
            self._now = when
            for monitor in self._advance_monitors:
                monitor.on_advance(when)
            item = cal.pop()[2]
        if isinstance(item, Event):
            item._run_callbacks()
        else:
            item()
        if self._step_monitors:
            for monitor in self._step_monitors:
                monitor.on_step(when, item)

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

        This is the engine's hot path, and it deliberately reaches into
        :class:`CalendarQueue` internals: after ``min_time()`` positions
        the cursor bucket, the whole run of entries at that timestamp is
        consumed straight out of the bucket list with zero per-item call
        frames.  The coupling is one-way and confined to this method (plus
        the invariants spelled out below); everything outside ``repro.sim``
        goes through the public API (enforced by simlint).

        Invariants honored while draining inline:

        * ``cal._pos``/``cal._count`` are updated *before* each dispatch —
          callbacks may push into the active bucket (``insort`` keyed off
          ``_pos``) or trigger a rebuild (which compacts ``b[:_pos]``).
        * A rebuild during dispatch replaces ``cal._buckets``; the identity
          check detects it and re-derives the position via ``min_time()``.
        * No push can land at the draining timestamp (delays are strictly
          positive; zero-delay work goes to the ready deque), so the run's
          extent is fixed once entered — ready items produced by the
          dispatches run strictly after the run, preserving heap order.
        """
        ready = self._ready
        cal = self._cal
        min_time = cal.min_time
        monitors = self._monitors
        while True:
            while ready:
                item = ready.popleft()
                if isinstance(item, Event):
                    # Inlined Event._run_callbacks.
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
            # Inlined min_time() fast path: the cursor bucket is mid-drain
            # and its head is not preempted by the overflow heap.  When it
            # applies, the drain loop below reuses the derived position.
            t = None
            if cal._active:
                b = cal._buckets[cal._cursor & cal._mask]
                pos = cal._pos
                if pos < len(b):
                    far = cal._far
                    t0 = b[pos][0]
                    if not far or far[0][0] > t0:
                        t = t0
            if t is None:
                t = min_time()
                if t is None:
                    if until is not None:
                        self._now = until
                    return True
            if until is not None and t > until:
                self._now = until
                return True
            if t < self._now:
                raise SimulationError("time went backwards")
            self._now = t
            while True:
                cal._floor = cal._cursor
                bref = cal._buckets
                b = bref[cal._cursor & cal._mask]
                pos = cal._pos
                n = len(b)
                clean = True
                while pos < n:
                    e = b[pos]
                    if e[0] != t:
                        break
                    pos += 1
                    cal._pos = pos
                    cal._count -= 1
                    item = e[2]
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
                    if cal._buckets is not bref:
                        # A push during dispatch rebuilt the queue; local
                        # position state is stale.
                        clean = False
                        break
                    n = len(b)
                if clean or min_time() != t:
                    break

    def _run_monitored(self, until: Optional[int]) -> bool:
        """Per-step run loop notifying monitors; returns False to switch.

        Cal time steps are retired in bulk with ``drain_due`` — delays
        are strictly positive, so nothing dispatched from the batch can
        land at the drained timestamp — then dispatched one item at a
        time with a per-step monitor notification.  The global dispatch
        order (cal entries at the current timestamp before ready
        entries, FIFO within each) is identical to the fast loop's.
        """
        ready = self._ready
        cal = self._cal
        min_time = cal.min_time
        drain_due = cal.drain_due
        monitors = self._monitors
        step_monitors = self._step_monitors
        advance_monitors = self._advance_monitors
        batch: List[Any] = []
        while monitors:
            t = min_time()
            if t is not None and t <= self._now:
                if t < self._now:
                    raise SimulationError("time went backwards")
                drain_due(None, batch)
            elif ready:
                item = ready.popleft()
                if isinstance(item, Event):
                    item._run_callbacks()
                else:
                    item()
                when = self._now
                for monitor in step_monitors:
                    monitor.on_step(when, item)
                continue
            elif t is None:
                if until is not None and until > self._now:
                    self._now = until
                    for monitor in advance_monitors:
                        monitor.on_advance(until)
                return True
            else:
                if until is not None and t > until:
                    if until > self._now:
                        self._now = until
                        for monitor in advance_monitors:
                            monitor.on_advance(until)
                    return True
                self._now = t
                # Advance hooks fire before anything at t dispatches, so
                # a timeline closing windows here sees only state produced
                # strictly before t.
                for monitor in advance_monitors:
                    monitor.on_advance(t)
                drain_due(None, batch)
            when = t
            # Dispatch the whole batch even if a callback detaches the
            # last monitor mid-way; the notification check per item keeps
            # attach/detach-during-dispatch semantics exact.
            for item in batch:
                if isinstance(item, Event):
                    item._run_callbacks()
                else:
                    item()
                if monitors:
                    for monitor in step_monitors:
                        monitor.on_step(when, item)
            del batch[:]
        return False

    def peek(self) -> Optional[int]:
        """Time of the next scheduled item, or None if none is pending."""
        if self._ready:
            return self._now
        return self._cal.min_time()

    # -- legacy heap scheduler ---------------------------------------------
    # The pre-overhaul implementation, byte-for-byte semantics, selected
    # with Environment(scheduler="heap").  It is the reference model the
    # differential suite runs every scenario against.

    def _schedule_heap(self, item: Union[Event, Callable[[], None]],
                       delay: int = 0) -> None:
        """Queue a triggered event or a callable ``delay`` ns from now."""
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, item))

    def _step_heap(self) -> None:
        """Process the single next scheduled item."""
        when, _seq, item = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("time went backwards")
        if when > self._now:
            self._now = when
            for monitor in self._advance_monitors:
                monitor.on_advance(when)
        if isinstance(item, Event):
            item._run_callbacks()
        else:
            item()
        if self._step_monitors:
            for monitor in self._step_monitors:
                monitor.on_step(when, item)

    def _run_heap(self, until: Optional[int] = None) -> None:
        """Run until the heap empties or the clock would pass ``until``."""
        if until is not None and until < self._now:
            raise SimulationError("cannot run backwards in time")
        heap = self._heap
        step = self.step
        while heap:
            if until is not None and heap[0][0] > until:
                self._advance_clock(until)
                return
            step()
        if until is not None:
            self._advance_clock(until)

    def _advance_clock(self, t: int) -> None:
        """Advance the clock to ``t`` (end of run), notifying advance hooks."""
        if t > self._now:
            self._now = t
            for monitor in self._advance_monitors:
                monitor.on_advance(t)

    def _peek_heap(self) -> Optional[int]:
        """Time of the next scheduled item, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None
