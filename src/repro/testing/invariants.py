"""Cross-cutting simulation invariants, checkable on any completed run.

The simulator's credibility rests on conservation laws the paper never
states because real hardware enforces them for free: clocks only move
forward, cores cannot be more than 100% busy, every delivered message was
once sent, cycle ledgers balance.  This module makes those laws executable
so every test, benchmark, and ``repro verify`` run can audit them.

Two entry points:

* :class:`EngineMonitor` attaches to an :class:`~repro.sim.Environment`
  *before* a run and audits the event stream as it executes (monotonic
  clock, step counts).
* :func:`verify_testbed` inspects a finished
  :class:`~repro.cluster.Testbed` and returns every
  :class:`InvariantViolation` found (an empty list means the run was
  internally consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..hw.cpu import Core
from ..iomodels.base import ExternalEndpoint, IoEventStats, NetPort
from ..sim import Environment

__all__ = [
    "InvariantViolation",
    "EngineMonitor",
    "check_core",
    "check_port",
    "check_endpoint",
    "check_event_stats",
    "check_conservation",
    "verify_testbed",
    "assert_no_violations",
]

# Utilization may exceed 1.0 by a hair from integer rounding of
# cycle->ns conversion; anything above this is a real accounting bug.
_UTIL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which law, where, and the observed values."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.subject}: {self.detail}"


class EngineMonitor:
    """Audits the live event stream of one :class:`Environment`.

    Attach with ``monitor = EngineMonitor.attach(env)``; after the run,
    ``monitor.violations`` holds anything the stream did wrong and
    ``monitor.steps`` / ``monitor.last_ns`` describe what executed.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.steps = 0
        self.events_processed = 0
        self.callbacks_run = 0
        self.last_ns = env.now
        self.violations: List[InvariantViolation] = []

    @classmethod
    def attach(cls, env: Environment) -> "EngineMonitor":
        monitor = cls(env)
        env.add_monitor(monitor)
        return monitor

    def detach(self) -> None:
        self.env.remove_monitor(self)

    def on_step(self, now: int, item) -> None:
        self.steps += 1
        if now < self.last_ns:
            self.violations.append(InvariantViolation(
                "clock-monotonic", "environment",
                f"step at {now} ns after clock reached {self.last_ns} ns"))
        self.last_ns = now
        if callable(item) and not hasattr(item, "callbacks"):
            self.callbacks_run += 1
        else:
            self.events_processed += 1


# -- per-object checks -------------------------------------------------------

def check_core(core: Core, now: int) -> List[InvariantViolation]:
    """A core's time and cycle ledgers must balance.

    * busy time is bounded by wall time, useful time by busy time;
    * the per-tag cycle breakdown sums to the total cycle count;
    * utilization fractions land in [0, 1].
    """
    out: List[InvariantViolation] = []
    busy = core.util.busy_ns
    useful = core.util.useful_ns
    if not 0 <= useful <= busy:
        out.append(InvariantViolation(
            "core-accounting", core.name,
            f"useful_ns={useful} outside [0, busy_ns={busy}]"))
    if busy > now:
        out.append(InvariantViolation(
            "core-accounting", core.name,
            f"busy_ns={busy} exceeds wall time {now} ns"))
    tag_sum = sum(core.cycles_by_tag[tag]
                  for tag in sorted(core.cycles_by_tag))
    if tag_sum != core.total_cycles:
        out.append(InvariantViolation(
            "cycle-ledger", core.name,
            f"cycles_by_tag sums to {tag_sum}, total_cycles={core.total_cycles}"))
    if core.total_cycles < 0 or any(v < 0 for v in core.cycles_by_tag.values()):
        out.append(InvariantViolation(
            "cycle-ledger", core.name, "negative cycle count"))
    if now > 0:
        frac = core.util.busy_fraction()
        if not 0.0 <= frac <= 1.0 + _UTIL_TOLERANCE:
            out.append(InvariantViolation(
                "utilization-bounds", core.name,
                f"busy fraction {frac} outside [0, 1]"))
    return out


def check_port(port: NetPort) -> List[InvariantViolation]:
    """Message/byte counters of a VM-facing port must be consistent."""
    out: List[InvariantViolation] = []
    for counter in (port.tx_messages, port.rx_messages,
                    port.tx_bytes, port.rx_bytes):
        if counter.value < 0:
            out.append(InvariantViolation(
                "counter-sign", f"port {port.mac}",
                f"{counter.name}={counter.value}"))
    # Every NetMessage carries at least one byte.
    if port.tx_bytes.value < port.tx_messages.value:
        out.append(InvariantViolation(
            "bytes-per-message", f"port {port.mac}",
            f"tx {port.tx_bytes.value}B over {port.tx_messages.value} msgs"))
    if port.rx_bytes.value < port.rx_messages.value:
        out.append(InvariantViolation(
            "bytes-per-message", f"port {port.mac}",
            f"rx {port.rx_bytes.value}B over {port.rx_messages.value} msgs"))
    return out


def check_endpoint(endpoint: ExternalEndpoint) -> List[InvariantViolation]:
    out: List[InvariantViolation] = []
    for counter in (endpoint.tx_messages, endpoint.rx_messages):
        if counter.value < 0:
            out.append(InvariantViolation(
                "counter-sign", endpoint.name,
                f"{counter.name}={counter.value}"))
    return out


def check_event_stats(stats: IoEventStats) -> List[InvariantViolation]:
    """The Table-3 event counters are monotone tallies: never negative."""
    out: List[InvariantViolation] = []
    snapshot = stats.snapshot()
    for column, value in snapshot.items():
        if value < 0:
            out.append(InvariantViolation(
                "counter-sign", f"stats {stats.name or 'io'}",
                f"{column}={value}"))
    if stats.total() != sum(snapshot[key] for key in sorted(snapshot)):
        out.append(InvariantViolation(
            "stats-sum", f"stats {stats.name or 'io'}",
            f"total() {stats.total()} != sum of columns"))
    return out


def check_conservation(testbed) -> List[InvariantViolation]:
    """No endpoint may receive a message that nobody sent.

    Summed across every port and external endpoint, receives are bounded
    by sends: links may *drop* frames (lossy channels) and frames may be
    in flight at run end, but the fabric never conjures traffic.
    Retransmissions count as fresh sends at the reliability layer, so the
    bound holds for them too.
    """
    tx = sum(p.tx_messages.value for p in testbed.ports)
    rx = sum(p.rx_messages.value for p in testbed.ports)
    tx += sum(c.tx_messages.value for c in testbed.clients)
    rx += sum(c.rx_messages.value for c in testbed.clients)
    if rx > tx:
        return [InvariantViolation(
            "message-conservation", f"testbed {testbed.model_name}",
            f"received {rx} messages but only {tx} were sent")]
    return []


# -- whole-testbed audit -----------------------------------------------------

def _testbed_cores(testbed) -> Iterable[Core]:
    seen = set()
    for vm in testbed.vms:
        if id(vm.vcpu) not in seen:
            seen.add(id(vm.vcpu))
            yield vm.vcpu
    for core in testbed.service_cores:
        if id(core) not in seen:
            seen.add(id(core))
            yield core
    for client in testbed.clients:
        if id(client.core) not in seen:
            seen.add(id(client.core))
            yield client.core


# How many flight-recorder entries a failing audit dumps.
_FLIGHT_DUMP_ENTRIES = 48


def verify_testbed(testbed,
                   monitor: Optional[EngineMonitor] = None,
                   recorder=None
                   ) -> List[InvariantViolation]:
    """Audit every invariant on a finished testbed run.

    Returns all violations found (empty list = clean).  Pass the
    :class:`EngineMonitor` that watched the run to include its stream
    findings.  Pass a :class:`~repro.telemetry.FlightRecorder` (or leave
    ``recorder=None`` to use the testbed's bound telemetry, if any) and a
    failing audit appends one extra violation carrying the recorder's
    last entries — the context needed to debug what the run was doing
    when the laws broke.
    """
    now = testbed.env.now
    out: List[InvariantViolation] = []
    if monitor is not None:
        out.extend(monitor.violations)
    for core in _testbed_cores(testbed):
        out.extend(check_core(core, now))
    for port in testbed.ports:
        out.extend(check_port(port))
    for client in testbed.clients:
        out.extend(check_endpoint(client))
    out.extend(check_event_stats(testbed.stats))
    out.extend(check_conservation(testbed))
    if out:
        if recorder is None:
            telemetry = getattr(testbed, "telemetry", None)
            recorder = getattr(telemetry, "recorder", None)
        if recorder is not None:
            out.append(InvariantViolation(
                "flight-recorder", "recent-events",
                recorder.dump(last=_FLIGHT_DUMP_ENTRIES)))
    return out


def assert_no_violations(violations: List[InvariantViolation]) -> None:
    """Raise an :class:`AssertionError` listing every violation."""
    if violations:
        lines = "\n".join(f"  - {v}" for v in violations)
        raise AssertionError(
            f"{len(violations)} simulation invariant(s) violated:\n{lines}")
