"""Unit tests for the re-armable engine ``Timer``."""

from __future__ import annotations

from typing import List

import pytest

from repro.sim import Environment, SimulationError, Timer
from repro.testing.invariants import EngineMonitor
from tests.conftest import heap_engine

@heap_engine
def test_fire_while_pending_raises(make_env):
    env = make_env()
    timer = Timer(env, lambda t: None)
    timer.fire(10)
    with pytest.raises(SimulationError):
        timer.fire(5)
    with pytest.raises(SimulationError):
        timer.fire()
    env.run()
    timer.fire()  # dispatched: free to fire again
    env.run()


def test_negative_delay_rejected():
    env = Environment()
    timer = Timer(env, lambda t: None)
    with pytest.raises(SimulationError):
        timer.fire(-1)
    timer.fire(0)  # the failed call left the timer armable


@heap_engine
def test_fire_zero_joins_ready_lane_behind_ready_items(make_env):
    env = make_env()
    order: List[str] = []
    timer = Timer(env, lambda t: order.append(f"timer:{t.value}"))

    def at_five() -> None:
        ev = env.event()
        ev.add_callback(lambda e: order.append("event"))
        ev.succeed()
        env.call_soon(lambda: order.append("soon"))
        timer.fire(0, "x")
        env.call_soon(lambda: order.append("after"))

    env.call_soon(at_five, delay=5)
    env.run()
    assert order == ["event", "soon", "timer:x", "after"]
    assert env.now == 5


@heap_engine
def test_fire_delay_orders_by_seq_at_equal_times(make_env):
    env = make_env()
    order: List[str] = []
    first = Timer(env, lambda t: order.append("first-timer"))
    second = Timer(env, lambda t: order.append("second-timer"))
    first.fire(10)
    env.timeout(10).add_callback(lambda e: order.append("timeout"))
    env.call_soon(lambda: order.append("soon"), delay=10)
    second.fire(10)
    env.run()
    assert order == ["first-timer", "timeout", "soon", "second-timer"]


@heap_engine
def test_rearm_from_own_callback(make_env):
    env = make_env()
    seen: List[tuple] = []

    def tick(timer: Timer) -> None:
        seen.append((env.now, timer.value))
        if timer.value < 4:
            # Alternate zero and positive delays to cover both lanes.
            timer.fire(timer.value % 2 * 7, timer.value + 1)

    Timer(env, tick).fire(3, 0)
    env.run()
    assert seen == [(3, 0), (3, 1), (10, 2), (10, 3), (17, 4)]


def _ticker_log(monitored: bool):
    env = Environment()
    monitor = EngineMonitor.attach(env) if monitored else None
    log: List[tuple] = []
    timers = []
    for i, period in enumerate((3, 5, 5, 0)):
        def cb(timer: Timer, i=i, period=period) -> None:
            log.append((env.now, i, timer.value))
            if timer.value < 6:
                timer.fire(period or 1, timer.value + 1)
        timers.append(Timer(env, cb))
    for timer in timers:
        timer.fire(0, 0)
    env.call_soon(lambda: log.append((env.now, "soon")), delay=15)
    env.run()
    counts = None
    if monitor is not None:
        counts = (monitor.steps, monitor.events_processed,
                  monitor.callbacks_run)
    return log, counts


def test_fast_monitored_and_heap_loops_dispatch_identically():
    fast, _ = _ticker_log(monitored=False)
    monitored, counts = _ticker_log(monitored=True)
    assert fast == monitored
    assert len(fast) == 4 * 7 + 1
    # Every firing is one Event step; the call_soon is the only callable.
    assert counts == (29, 28, 1)


def test_step_dispatches_timer():
    env = Environment()
    seen: List[int] = []
    Timer(env, lambda t: seen.append(env.now)).fire(4)
    env.step()
    assert seen == [4]
