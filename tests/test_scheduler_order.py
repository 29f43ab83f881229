"""The engine's dispatch order against a one-heap ``(time, seq)`` reference.

``Environment`` keeps zero-delay work in a ready deque and positive
delays in a heap, and dispatches "heap entries due now, then the ready
deque" at each time step.  The reference below gives every item one
``(time, seq)`` key in a single heap, the order that split must
reproduce.  Random programs mix every way of scheduling work, including
from inside callbacks, and are driven through both; the dispatch logs
and final clocks must match.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Tuple

from repro.sim import Environment, Timer
from repro.testing import run_property


class _Reference:
    """Every item gets a ``(time, seq)`` key; dispatch is key order."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []

    def call_soon(self, fn: Callable[[], None], delay: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def schedule_at(self, at_ns: int, fn: Callable[[], None]) -> None:
        self.call_soon(fn, at_ns - self.now)

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        self.now, _seq, fn = heapq.heappop(self._heap)
        fn()

    def run(self, until=None) -> None:
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until


class _Advances:
    """A monitor with both hooks; records the clock advances it sees."""

    def __init__(self) -> None:
        self.advances: List[int] = []
        self.steps = 0

    def on_advance(self, now: int) -> None:
        self.advances.append(now)

    def on_step(self, now: int, item: Any) -> None:
        self.steps += 1


KINDS = ("soon", "soon", "timeout", "succeed", "timer", "at")
DELAYS = (0, 0, 1, 2, 5, 5, 13)


def _drive(seed: int, real: bool) -> Tuple[List[tuple], int]:
    """Run one random program; return its ``(now, tag)`` log and clock."""
    rng = random.Random(seed)
    env: Any = Environment() if real else _Reference()
    log: List[tuple] = []
    budget = [rng.randint(20, 120)]
    monitor = _Advances()
    attached = [False]

    def body(tag: int) -> None:
        log.append((env.now, tag))
        if rng.random() < 0.1:
            # Attach or detach the monitor mid-run; the reference has no
            # monitored loop, so the schedule must not notice.
            attached[0] = not attached[0]
            if real:
                if attached[0]:
                    env.add_monitor(monitor)
                else:
                    env.remove_monitor(monitor)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            spawn()

    def spawn() -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        tag = budget[0]
        kind = rng.choice(KINDS)
        delay = rng.choice(DELAYS)
        if kind == "soon":
            env.call_soon(lambda: body(tag), delay)
        elif kind == "at":
            env.schedule_at(env.now + delay, lambda: body(tag))
        elif not real:
            # A timeout, a succeed (delay 0) and a timer firing all get the
            # key a call_soon at the same delay would.
            if kind == "succeed":
                delay = 0
            if kind == "timer":
                rearms = rng.randint(0, 3)

                def tick(left: int = rearms) -> None:
                    body(tag)
                    if left:
                        env.call_soon(lambda: tick(left - 1),
                                      rng.choice(DELAYS))
                env.call_soon(tick, delay)
            else:
                env.call_soon(lambda: body(tag), delay)
        elif kind == "timeout":
            env.timeout(delay).add_callback(lambda _ev: body(tag))
        elif kind == "succeed":
            ev = env.event()
            ev.add_callback(lambda _ev: body(tag))
            ev.succeed()
        else:
            left = [rng.randint(0, 3)]

            def on_fire(timer: Timer) -> None:
                body(tag)
                if left[0]:
                    left[0] -= 1
                    timer.fire(rng.choice(DELAYS))  # re-arm from inside
            Timer(env, on_fire).fire(delay)

    for _ in range(rng.randint(1, 6)):
        spawn()
    while budget[0] > 0 or env.peek() is not None:
        if rng.random() < 0.3 and env.peek() is not None:
            env.step()
        else:
            env.run(until=env.now + rng.choice((0, 1, 5, 20, 60)))
        if rng.random() < 0.3:
            spawn()  # work scheduled between chunks, outside any callback
    env.run()
    if real:
        assert monitor.advances == sorted(set(monitor.advances))
    return log, env.now


def test_environment_matches_time_seq_reference():
    def prop(rng: random.Random, case: int) -> None:
        seed = rng.randrange(2**32)
        got = _drive(seed, real=True)
        want = _drive(seed, real=False)
        assert got == want
        assert len(want[0]) > 1

    run_property(prop, n_cases=300, seed=16)
