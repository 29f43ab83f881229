"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5)
        done.append(env.now)
        yield env.timeout(7)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5, 12]


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(3, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_becomes_event_value():
    env = Environment()

    def inner(env):
        yield env.timeout(10)
        return 42

    def outer(env):
        result = yield env.process(inner(env))
        return result + 1

    p = env.process(outer(env))
    env.run()
    assert p.value == 43
    assert env.now == 10


def test_events_at_same_time_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=35)
    assert env.now == 35


def test_run_until_before_now_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def firer(env):
        yield env.timeout(20)
        gate.succeed("opened")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert log == [(20, "opened")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_waiting_on_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("v")
    seen = []

    def late(env):
        yield env.timeout(50)
        value = yield gate
        seen.append((env.now, value))

    env.process(late(env))
    env.run()
    assert seen == [(50, "v")]


def test_process_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def killer(env, victim):
        yield env.timeout(30)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(killer(env, victim))
    env.run()
    assert log == [(30, "wake up")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    assert not p.is_alive
    p.interrupt()  # must not raise
    env.run()


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 5

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        events = [env.timeout(30, value="late"), env.timeout(10, value="early")]
        values = yield env.all_of(events)
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["late", "early"]
    assert env.now == 30


def test_all_of_empty_succeeds_immediately():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_any_of_returns_first_winner():
    env = Environment()

    def proc(env):
        fast = env.timeout(5, value="fast")
        slow = env.timeout(50, value="slow")
        winner, value = yield env.any_of([fast, slow])
        return value

    p = env.process(proc(env))
    env.run(until=100)
    assert p.value == "fast"


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(40)
    assert env.peek() == 40


def test_deterministic_two_runs_identical():
    def build():
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        for i in range(10):
            env.process(proc(env, i, (i * 7) % 5 + 1))
        env.run()
        return order

    assert build() == build()


# -- scheduler selection and combinator callback hygiene ---------------------


def test_anyof_detaches_losers_on_trigger():
    # Regression: a settled AnyOf must unhook from the losing events, or
    # every long-lived event accumulates dead callbacks (and fires into
    # settled races) for the rest of the run.
    env = Environment()
    fast = env.timeout(10, value="fast")
    slow = env.timeout(1_000_000, value="slow")
    race = env.any_of([fast, slow])
    env.run(until=20)
    assert race.ok and race.value == (fast, "fast")
    assert slow.callbacks == ()
    env.run(until=2_000_000)  # the loser still fires without incident
    assert slow.ok


def test_allof_detaches_outstanding_on_failure():
    env = Environment()
    doomed = Event(env)
    pending = env.timeout(1_000_000)
    both = env.all_of([doomed, pending])
    doomed.fail(RuntimeError("boom"))
    env.run(until=10)
    assert both.triggered and not both.ok
    assert pending.callbacks == ()


def test_call_soon_rejects_negative_delay_at_the_call():
    env = Environment()
    env.run(until=100)
    with pytest.raises(SimulationError, match="-5"):
        env.call_soon(lambda: None, -5)
    # Nothing was queued: the schedule stays empty and the clock put.
    assert env.peek() is None
    env.run()
    assert env.now == 100
