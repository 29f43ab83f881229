"""Telemetry sessions: turn observation on for everything built inside.

The cluster builders call :func:`bind_testbed` on every testbed they
assemble.  Without an active session that call is a no-op — production
runs, experiments, and the golden suite pay nothing.  Inside a
``with TelemetrySession() as session:`` block, each built testbed gets its
own :class:`TestbedTelemetry`: a private metrics registry (so metric
names never collide across testbeds), a request tracer installed into the
I/O models, and a flight recorder watching the engine.

    with TelemetrySession() as session:
        result = run_scenario("rr_vrio")
    telemetry = session.for_testbed(result.testbed)
    print(telemetry.report())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..sim import Histogram, Tracer
from .attribution import LatencyAttribution, attribute
from .exporters import text_report
from .flight import FlightRecorder
from .instrument import instrument_testbed
from .registry import MetricsRegistry
from .slo import SloProbe, SloSpec
from .timeline import DEFAULT_WINDOW_NS, Timeline

__all__ = ["TelemetrySession", "TestbedTelemetry", "bind_testbed",
           "active_session"]

# Monotone workload progress counters worth a per-window rate series.
_WORKLOAD_PROGRESS_ATTRS = ("transactions", "operations", "chunks_received")


class TestbedTelemetry:
    """One testbed's registry + tracer + flight recorder bundle.

    A windowed :class:`Timeline` and per-window SLO probes are opt-in via
    :meth:`bind_timeline` / :meth:`add_slo` (or the session's
    ``timeline_width_ns`` / ``slos`` arguments); without them the engine
    keeps its monitor-free fast path.
    """

    def __init__(self, testbed: Any, tracer_capacity: int = 100_000,
                 flight_capacity: int = 256) -> None:
        self.testbed = testbed
        self.registry = MetricsRegistry()
        self.tracer = Tracer(testbed.env, capacity=tracer_capacity)
        self.recorder = FlightRecorder(capacity=flight_capacity)
        self.recorder.attach(testbed.env)
        self.timeline: Optional[Timeline] = None
        self.probes: List[SloProbe] = []
        instrument_testbed(testbed, self.registry)
        for model in testbed.models:
            if hasattr(model, "tracer") and model.tracer is None:
                model.tracer = self.tracer
        testbed.telemetry = self

    # -- timeline / SLO ----------------------------------------------------

    def bind_timeline(self, width_ns: Optional[int] = None) -> Timeline:
        """Attach a windowed timeline over this testbed's registry.

        Binding registers the timeline as an engine advance monitor,
        which switches the run loop to the monitored path; reads stay
        reference-only, so the run is bit-identical either way.
        """
        if self.timeline is not None:
            return self.timeline
        env = self.testbed.env
        self.timeline = Timeline(width_ns or DEFAULT_WINDOW_NS,
                                 registry=self.registry, start_ns=env.now)
        env.add_monitor(self.timeline)
        return self.timeline

    def add_slo(self, spec: SloSpec) -> SloProbe:
        """Attach an SLO probe (binding a timeline first if needed)."""
        timeline = self.bind_timeline(spec.window_ns or None)
        probe = SloProbe(spec, recorder=self.recorder).attach(timeline)
        self.probes.append(probe)
        return probe

    def finish(self) -> None:
        """Flush the timeline's final partial window at end of run."""
        if self.timeline is not None:
            self.timeline.flush(self.testbed.env.now)

    def register_workloads(self, workloads: Sequence[object]) -> None:
        """Register workload-side instruments (latency histograms and
        progress counters) so timelines and SLO probes can window them.

        Called by the scenario builders right after workload creation;
        reference-only, so unobserved runs are unchanged.
        """
        for index, workload in enumerate(workloads):
            prefix = f"workload.{index}"
            latency = getattr(workload, "latency_ns", None)
            if isinstance(latency, Histogram):
                self.registry.register_histogram(
                    f"{prefix}.latency_ns", latency)
            for attr in _WORKLOAD_PROGRESS_ATTRS:
                if hasattr(workload, attr):
                    read = (lambda w=workload, a=attr:
                            float(getattr(w, a)))
                    self.registry.register_gauge(f"{prefix}.{attr}", read)
                    if self.timeline is not None:
                        self.timeline.watch_rate(f"{prefix}.{attr}", read)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        return self.registry.snapshot()

    def attribution(self) -> LatencyAttribution:
        """Queueing-vs-service latency attribution over every trace."""
        return attribute(self.tracer)

    def chrome_trace(self) -> Dict[str, Any]:
        return self.tracer.to_chrome_trace()

    def report(self, title: str = "",
               attribution: Optional[LatencyAttribution] = None) -> str:
        return text_report(self, title=title, attribution=attribution)


_active: List["TelemetrySession"] = []


class TelemetrySession:
    """Context manager scoping telemetry onto every testbed built within.

    ``timeline_width_ns`` binds a windowed timeline onto every testbed
    built inside the session; ``slos`` attaches the given
    :class:`SloSpec` probes as well (binding a timeline if needed).
    """

    def __init__(self, tracer_capacity: int = 100_000,
                 flight_capacity: int = 256,
                 timeline_width_ns: Optional[int] = None,
                 slos: Optional[Sequence[SloSpec]] = None) -> None:
        self.tracer_capacity = tracer_capacity
        self.flight_capacity = flight_capacity
        self.timeline_width_ns = timeline_width_ns
        self.slos = list(slos) if slos else []
        self.bound: List[TestbedTelemetry] = []

    def __enter__(self) -> "TelemetrySession":
        _active.append(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _active.remove(self)
        for telemetry in self.bound:
            telemetry.finish()

    def bind(self, testbed: Any) -> TestbedTelemetry:
        telemetry = TestbedTelemetry(testbed,
                                     tracer_capacity=self.tracer_capacity,
                                     flight_capacity=self.flight_capacity)
        if self.timeline_width_ns is not None:
            telemetry.bind_timeline(self.timeline_width_ns)
        for spec in self.slos:
            telemetry.add_slo(spec)
        self.bound.append(telemetry)
        return telemetry

    def for_testbed(self, testbed: Any) -> Optional[TestbedTelemetry]:
        for telemetry in self.bound:
            if telemetry.testbed is testbed:
                return telemetry
        return None


def active_session() -> Optional[TelemetrySession]:
    """The innermost active session, or None."""
    return _active[-1] if _active else None


def bind_testbed(testbed: Any) -> Optional[TestbedTelemetry]:
    """Instrument ``testbed`` under the active session (no-op without one).

    Called by every cluster builder just before it returns.
    """
    session = active_session()
    if session is None:
        return None
    return session.bind(testbed)
