"""CPU core models.

A :class:`Core` is a serving resource that executes *work items* measured in
cycles.  All latency/throughput contention on the compute side of the
reproduction is emergent from cores serving their FIFO run queues.

Two details matter for the paper:

* **Cycle accounting by tag** — Figure 10 reports cycles-per-packet broken
  down by I/O model; every ``execute()`` call carries a tag and the core
  accumulates cycles per tag, so experiments can divide by packet counts.
* **Polling semantics** — a sidecore in poll mode is 100% *busy* even when
  it has nothing to do (Figure 15).  A poll-mode core accounts idle spans as
  busy-but-useless time, and charges a small dispatch latency when work
  arrives while it was spinning (the poll loop notices new work only at its
  next iteration).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..sim import Environment, Event, Timer, UtilizationTracker

__all__ = ["Core", "CpuSocket"]


class Core:
    """A single CPU core serving cycle-denominated work items in FIFO order.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Diagnostic name, e.g. ``"vmhost0/core3"``.
    ghz:
        Clock frequency; ``cycles / ghz`` nanoseconds per work item.
    poll_mode:
        If True the core spins when idle (sidecore semantics): idle time is
        accounted as busy-but-useless, and newly arriving work pays
        ``poll_dispatch_ns`` before service begins.
    poll_dispatch_ns:
        Mean delay for the poll loop to notice new work on an idle core.
    """

    IDLE_POLICIES = ("halt", "poll", "mwait")

    # Per-core power draw (W).  A spinning poll loop burns nearly as much
    # as real work; monitor/mwait parks the core cheaply (§4.6 Energy).
    BUSY_WATTS = 18.0
    POLL_IDLE_WATTS = 16.5
    MWAIT_IDLE_WATTS = 3.5
    HALT_IDLE_WATTS = 5.0

    # How long an idle core takes to notice new work, per policy.  Halted
    # cores wake via interrupts, whose latency the IRQ cost paths already
    # model, so "halt" adds nothing here.
    _WAKEUP_NS = {"halt": 0, "poll": 150, "mwait": 1_500}

    def __init__(self, env: Environment, name: str, ghz: float,
                 poll_mode: bool = False, poll_dispatch_ns: int = 150,
                 idle_policy: Optional[str] = None) -> None:
        if ghz <= 0:
            raise ValueError(f"core frequency must be positive, got {ghz}")
        if idle_policy is None:
            idle_policy = "poll" if poll_mode else "halt"
        if idle_policy not in self.IDLE_POLICIES:
            raise ValueError(f"idle policy must be one of "
                             f"{self.IDLE_POLICIES}, got {idle_policy!r}")
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
        self._idle = False  # waiting for work: the next execute() wakes
        self._idle_start = 0
        self._service_ns = 0
        self._wake = Timer(env, self._on_wake)
        self._service = Timer(env, self._advance)
        env.call_soon(self._advance)

    # -- public API ---------------------------------------------------------

    def ns_for(self, cycles: int) -> int:
        """Wall time in ns to execute ``cycles`` on this core."""
        return max(0, int(round(cycles / self.ghz)))

    def execute(self, cycles: int, useful: bool = True, tag: str = "work",
                high_priority: bool = False) -> Event:
        """Enqueue ``cycles`` of work; returns an event for its completion."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        done = self.env.event()
        item = (cycles, useful, tag, done)
        if high_priority:
            self._high.append(item)
        else:
            self._normal.append(item)
        if self._idle:
            self._idle = False
            self._wake.fire()
        return done

    def stall(self, duration_ns: int) -> Event:
        """Occupy the core with non-useful work for ~``duration_ns``.

        Fault-injection hook: models a hypervisor-level hiccup (SMI, host
        scheduler preemption) pinning the core.  Queued at high priority so
        the stall starts as soon as the in-flight work item finishes;
        pending useful work waits behind it.
        """
        if duration_ns < 0:
            raise ValueError(f"negative stall duration: {duration_ns}")
        cycles = int(round(duration_ns * self.ghz))
        return self.execute(cycles, useful=False, tag="stall",
                            high_priority=True)

    @property
    def queue_length(self) -> int:
        return len(self._high) + len(self._normal)

    def energy_joules(self) -> float:
        """Energy consumed so far under this core's idle policy.

        Useful work always burns ``BUSY_WATTS``; what idle costs depends
        on the policy — a polling sidecore's idle is indistinguishable
        from work to the power supply, an mwait'ed core naps cheaply.
        """
        total_ns = self.env.now - 0
        busy_ns = self.util.busy_ns
        useful_ns = self.util.useful_ns
        idle_ns = total_ns - busy_ns
        spin_ns = busy_ns - useful_ns  # poll-mode idle accounted as busy
        idle_watts = {"halt": self.HALT_IDLE_WATTS,
                      "poll": self.POLL_IDLE_WATTS,
                      "mwait": self.MWAIT_IDLE_WATTS}[self.idle_policy]
        joules_ns = (useful_ns * self.BUSY_WATTS
                     + spin_ns * self.POLL_IDLE_WATTS
                     + idle_ns * idle_watts)
        return joules_ns * 1e-9

    # -- service state machine ----------------------------------------------
    # ``_wake`` fires when work reaches an idle core, then (value True) once
    # the core has noticed it; ``_service`` fires when the item in service
    # (its value) completes.  Every firing must keep the (time, seq) of the
    # generator server it replaced: the goldens pin sim.steps/sim.events.

    def _on_wake(self, timer: Timer) -> None:
        noticed = timer.value
        if self.poll_mode:
            # The spinning poll loop burned the idle span, then the notice.
            self.util.account(self.poll_dispatch_ns if noticed
                              else self.env.now - self._idle_start,
                              useful=False)
        if not noticed and self.poll_dispatch_ns:
            # Poll-loop notice latency, or mwait wakeup latency.
            timer.fire(self.poll_dispatch_ns, True)
        else:
            self._advance()

    def _advance(self, timer: Optional[Timer] = None) -> None:
        """Retire the item ``timer`` served (if any), then start queued work
        (a zero-cycle item completes in this same step) or go idle."""
        high = self._high
        normal = self._normal
        item = None if timer is None else timer.value
        duration = self._service_ns
        while True:
            if item is not None:
                cycles, useful, tag, done = item
                self.util.account(duration, useful=useful)
                self.total_cycles += cycles
                self.cycles_by_tag[tag] = (self.cycles_by_tag.get(tag, 0)
                                           + cycles)
                done.succeed()
            if not high and not normal:
                self.busy = False
                self._idle_start = self.env.now
                self._idle = True
                return
            item = high.popleft() if high else normal.popleft()
            self.busy = True
            duration = self.ns_for(item[0])
            if duration:
                self._service_ns = duration
                self._service.fire(duration, item)
                return


class CpuSocket:
    """A group of same-frequency cores (one physical CPU package)."""

    def __init__(self, env: Environment, name: str, core_count: int,
                 ghz: float) -> None:
        if core_count <= 0:
            raise ValueError(f"core count must be positive, got {core_count}")
        self.name = name
        self.ghz = ghz
        self.cores = [Core(env, f"{name}/core{i}", ghz)
                      for i in range(core_count)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, index: int) -> Core:
        return self.cores[index]
