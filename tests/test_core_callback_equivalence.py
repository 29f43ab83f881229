"""Oracle test: the callback-native ``Core`` matches the generator server.

``ReferenceCore`` below is the process-based core the simulator used before
``Core`` became a two-timer state machine.  Both are driven from identical
randomized schedules; every observable — completion times and order, the
``busy``/queue state seen at each completion, utilization, cycle ledgers,
energy, and the engine's step/event/callback counts — must agree exactly.
Equal monitor counts are the proof that the conversion kept the
``(time, seq)`` schedule step for step.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

import pytest

from repro.hw import Core
from repro.sim import Environment, Event, UtilizationTracker
from repro.testing.invariants import EngineMonitor
from tests.conftest import heap_engine


class ReferenceCore:
    """The generator-process ``Core`` (server loop in ``_serve``)."""

    BUSY_WATTS = 18.0
    POLL_IDLE_WATTS = 16.5
    MWAIT_IDLE_WATTS = 3.5
    HALT_IDLE_WATTS = 5.0
    _WAKEUP_NS = {"halt": 0, "poll": 150, "mwait": 1_500}

    def __init__(self, env: Environment, name: str, ghz: float,
                 poll_mode: bool = False, poll_dispatch_ns: int = 150,
                 idle_policy: Optional[str] = None) -> None:
        if idle_policy is None:
            idle_policy = "poll" if poll_mode else "halt"
        self.env = env
        self.name = name
        self.ghz = ghz
        self.idle_policy = idle_policy
        self.poll_mode = idle_policy == "poll"
        self.poll_dispatch_ns = (poll_dispatch_ns if self.poll_mode
                                 else self._WAKEUP_NS[idle_policy])
        self.util = UtilizationTracker(env)
        self.cycles_by_tag: Dict[str, int] = {}
        self.total_cycles = 0
        self.busy = False
        self._high: Deque[Tuple[int, bool, str, Event]] = deque()
        self._normal: Deque[Tuple[int, bool, str, Event]] = deque()
        self._idle_wakeup: Optional[Event] = None
        env.process(self._serve(), name=f"core:{name}")

    def ns_for(self, cycles: int) -> int:
        return max(0, int(round(cycles / self.ghz)))

    def execute(self, cycles: int, useful: bool = True, tag: str = "work",
                high_priority: bool = False) -> Event:
        done = self.env.event()
        item = (cycles, useful, tag, done)
        if high_priority:
            self._high.append(item)
        else:
            self._normal.append(item)
        if self._idle_wakeup is not None and not self._idle_wakeup.triggered:
            self._idle_wakeup.succeed()
        return done

    def stall(self, duration_ns: int) -> Event:
        cycles = int(round(duration_ns * self.ghz))
        return self.execute(cycles, useful=False, tag="stall",
                            high_priority=True)

    @property
    def queue_length(self) -> int:
        return len(self._high) + len(self._normal)

    def energy_joules(self) -> float:
        total_ns = self.env.now - 0
        busy_ns = self.util.busy_ns
        useful_ns = self.util.useful_ns
        idle_ns = total_ns - busy_ns
        spin_ns = busy_ns - useful_ns
        idle_watts = {"halt": self.HALT_IDLE_WATTS,
                      "poll": self.POLL_IDLE_WATTS,
                      "mwait": self.MWAIT_IDLE_WATTS}[self.idle_policy]
        joules_ns = (useful_ns * self.BUSY_WATTS
                     + spin_ns * self.POLL_IDLE_WATTS
                     + idle_ns * idle_watts)
        return joules_ns * 1e-9

    def _serve(self) -> Generator[Event, Any, None]:
        env = self.env
        while True:
            if not self._high and not self._normal:
                idle_start = env.now
                self._idle_wakeup = env.event()
                yield self._idle_wakeup
                self._idle_wakeup = None
                if self.poll_mode:
                    self.util.account(env.now - idle_start, useful=False)
                if self.poll_dispatch_ns:
                    yield env.timeout(self.poll_dispatch_ns)
                    if self.poll_mode:
                        self.util.account(self.poll_dispatch_ns,
                                          useful=False)
            queue = self._high if self._high else self._normal
            cycles, useful, tag, done = queue.popleft()
            self.busy = True
            duration = self.ns_for(cycles)
            if duration:
                yield env.timeout(duration)
            self.util.account(duration, useful=useful)
            self.total_cycles += cycles
            self.cycles_by_tag[tag] = self.cycles_by_tag.get(tag, 0) + cycles
            self.busy = self.queue_length > 0
            done.succeed()


# -- randomized drive ------------------------------------------------------

Op = Tuple[str, Any]


def _random_schedule(seed: int) -> Tuple[List[Op], List[Tuple[int, List[Op]]]]:
    """(ops queued before the first step, [(at_ns, ops), ...])."""
    rng = random.Random(seed)

    def op() -> Op:
        roll = rng.random()
        if roll < 0.12:
            return ("stall", rng.choice([0, 1, 40, 700]))
        cycles = rng.choice([0, 0, 1, 3, 200, 1_000, 2_400, 9_000])
        return ("execute", (cycles, rng.random() < 0.8,
                            rng.choice(["rx", "tx", "app"]),
                            rng.random() < 0.2))

    boot = [op() for _ in range(rng.randint(0, 3))]
    timed = []
    at = 0
    for _ in range(40):
        # Small gaps land work during wakes, notice delays and service;
        # long ones let the core fall idle.
        at += rng.choice([0, 0, 1, 50, 150, 300, 1_500, 6_000])
        timed.append((at, [op() for _ in range(rng.choice([1, 1, 2, 4]))]))
    return boot, timed


def _drive(core_cls, make_env, policy: str, seed: int,
           monitored: bool) -> Dict[str, Any]:
    env = make_env()
    monitor = EngineMonitor.attach(env) if monitored else None
    core = core_cls(env, "c0", ghz=2.0, idle_policy=policy,
                    poll_dispatch_ns=150)
    log: List[Tuple[int, int, bool, int]] = []
    issued = [0]

    def issue(op: Op, chain: int = 0) -> None:
        kind, arg = op
        index = issued[0]
        issued[0] += 1
        if kind == "stall":
            done = core.stall(arg)
        else:
            cycles, useful, tag, high = arg
            done = core.execute(cycles, useful=useful, tag=tag,
                                high_priority=high)

        def on_done(_ev: Event) -> None:
            log.append((env.now, index, core.busy, core.queue_length))
            if chain:
                # Completion-driven work: queued in the same step the
                # previous item finished.
                issue(("execute", (chain * 100, True, "chain", False)),
                      chain - 1)

        done.add_callback(on_done)

    def closed_loop(env: Environment) -> Generator[Event, Any, None]:
        for cycles in (0, 500, 0, 2_000, 10):
            yield core.execute(cycles, tag="loop")
            log.append((env.now, -1, core.busy, core.queue_length))

    boot, timed = _random_schedule(seed)
    for op in boot:
        issue(op)
    issue(("execute", (300, True, "chain", False)), chain=3)
    env.process(closed_loop(env))
    for at, ops in timed:
        env.schedule_at(at, lambda ops=ops: [issue(o) for o in ops])
    env.run(until=timed[-1][0] + 50_000)
    out = {
        "log": log,
        "busy_ns": core.util.busy_ns,
        "useful_ns": core.util.useful_ns,
        "total_cycles": core.total_cycles,
        "cycles_by_tag": dict(core.cycles_by_tag),
        "energy": core.energy_joules(),
        "busy": core.busy,
        "queue_length": core.queue_length,
    }
    if monitor is not None:
        out["monitor"] = (monitor.steps, monitor.events_processed,
                          monitor.callbacks_run)
        assert not monitor.violations
    return out


@heap_engine
@pytest.mark.parametrize("policy", ["halt", "poll", "mwait"])
@pytest.mark.parametrize("seed", range(6))
def test_core_matches_generator_reference(make_env, policy, seed):
    for monitored in (True, False):
        ref = _drive(ReferenceCore, make_env, policy, seed, monitored)
        new = _drive(Core, make_env, policy, seed, monitored)
        assert new == ref
    assert len(ref["log"]) > 40


def test_reference_counts_pin_one_event_per_timer_firing():
    """A lone item on a polling core: wake, notice and service, each one
    Event dispatch, after the one boot callable."""
    for core_cls in (ReferenceCore, Core):
        env = Environment()
        monitor = EngineMonitor.attach(env)
        core = core_cls(env, "c0", ghz=1.0, poll_mode=True,
                        poll_dispatch_ns=150)
        env.run(until=10)
        core.execute(1_000)
        env.run()
        # boot callable; wake, notice, service, done-Event.
        assert (monitor.steps, monitor.events_processed,
                monitor.callbacks_run) == (5, 4, 1)
        assert env.now == 10 + 150 + 1_000
