"""Windowed time-series telemetry over the metrics registry.

A :class:`Timeline` chops simulated time into fixed-width windows
``[k*W, (k+1)*W)`` and, at each window close, reads the live instruments
registered in a :class:`~repro.telemetry.registry.MetricsRegistry`:
counters become per-window deltas and per-second rates, gauges are
sampled, histograms yield *windowed* p50/p95/p99 over only the samples
that arrived inside the window, and utilization trackers yield busy /
useful fractions of the window span.  Arbitrary monotone callables can
ride along via :meth:`Timeline.watch_rate` (fault campaigns feed their
completed-operation count through this to build recovery curves).

The timeline is an engine *advance monitor*: it exposes only
``on_advance(now)``, which :class:`~repro.sim.Environment` calls whenever
the clock strictly advances, before anything at the new timestamp
dispatches.  Two consequences:

* **Exactness** — when a window ``[s, s+W)`` closes, every update the
  instruments have seen is from time < now, and the clock advanced
  through every intermediate timestamp in order, so the close observes
  precisely the updates with timestamps inside the window.
* **Zero cost unbound** — binding a timeline flips the engine into the
  monitored run loop (PR 6); with no timeline bound ``_run_fast`` runs
  untouched, and because registration stores references (PR 2) a bound
  timeline never perturbs event order: runs stay bit-identical.

Window widths are configuration, not code: take them from
``DEFAULT_WINDOW_NS``, an :class:`~repro.telemetry.slo.SloSpec`, or a
named constant — simlint SIM405 rejects inline numeric widths elsewhere.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.stats import percentile

__all__ = [
    "DEFAULT_WINDOW_NS",
    "Timeline",
    "sparkline",
    "render_dashboard",
]

# Default window width for scenario observation: 500 us gives ~12-40
# windows across the registry scenarios' 6-20 ms runs.
DEFAULT_WINDOW_NS = 500_000

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


class Timeline:
    """Fixed-width windowed view of live telemetry instruments.

    Parameters
    ----------
    width_ns:
        Window width in simulated nanoseconds (must be positive).
    registry:
        Optional :class:`MetricsRegistry` whose instruments are read at
        every window close.  The name list is re-walked each close, so
        instruments registered mid-run (e.g. a storage device attached
        after boot) are picked up from their first complete window.
    start_ns:
        Simulated time the observation starts at; the first window is
        the one containing ``start_ns``.
    """

    def __init__(self, width_ns: int, registry: Optional[Any] = None,
                 start_ns: int = 0) -> None:
        if width_ns <= 0:
            raise ValueError(f"window width must be positive: {width_ns}")
        self.width_ns = int(width_ns)
        self.registry = registry
        self._start_ns = int(start_ns)
        # First boundary strictly after start: close of the window
        # containing start_ns.
        self._next_close = (self._start_ns // self.width_ns + 1) * self.width_ns
        self._window_start = self._start_ns
        self._windows: List[Dict[str, Any]] = []
        self._counter_last: Dict[str, float] = {}
        self._util_last: Dict[str, Tuple[int, int]] = {}
        self._hist_offset: Dict[str, int] = {}
        self._rate_watches: List[Tuple[str, Callable[[], float]]] = []
        self._rate_last: Dict[str, float] = {}
        self._subscribers: List[Callable[["Timeline", Dict[str, Any]], None]] = []
        self._flushed = False

    # -- wiring ------------------------------------------------------------

    def watch_rate(self, name: str, read: Callable[[], float]) -> None:
        """Track a monotone callable as a per-window delta/rate series."""
        if any(n == name for n, _ in self._rate_watches):
            raise ValueError(f"rate watch {name!r} already registered")
        self._rate_watches.append((name, read))

    def subscribe(self, fn: Callable[["Timeline", Dict[str, Any]], None]) -> None:
        """Call ``fn(timeline, window)`` at every window close.

        The hook point SLO probes — and, later, the elastic control
        plane — attach to.
        """
        self._subscribers.append(fn)

    # -- engine monitor hook ----------------------------------------------

    def on_advance(self, now: int) -> None:
        """Engine hook: close every window that ended at or before ``now``.

        Called before anything at ``now`` dispatches, so a closing window
        observes exactly the updates timestamped inside it.
        """
        next_close = self._next_close
        while now >= next_close:
            self._close(next_close, partial=False)
            next_close += self.width_ns
        self._next_close = next_close

    def flush(self, now: int) -> None:
        """Close the final (possibly partial) window at end of run.

        Idempotent; call once after the run with the final clock value.
        """
        if self._flushed:
            return
        self.on_advance(now)
        if now > self._window_start:
            self._close(now, partial=True)
        self._flushed = True

    # -- window close ------------------------------------------------------

    def _close(self, end_ns: int, partial: bool) -> None:
        start_ns = self._window_start
        span = end_ns - start_ns
        window: Dict[str, Any] = {
            "index": len(self._windows),
            "start_ns": start_ns,
            "end_ns": end_ns,
            "partial": partial,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "utilization": {},
            "rates": {},
        }
        if self.registry is not None:
            self._read_registry(window, span)
        for name, read in self._rate_watches:
            value = float(read())
            last = self._rate_last.get(name, 0.0)
            delta = value - last
            self._rate_last[name] = value
            window["rates"][name] = {
                "delta": delta,
                "rate_per_s": delta * 1e9 / span if span else 0.0,
            }
        self._windows.append(window)
        self._window_start = end_ns
        for fn in self._subscribers:
            fn(self, window)

    def _read_registry(self, window: Dict[str, Any], span: int) -> None:
        registry = self.registry
        for name in registry.names():
            kind = registry.kind_of(name)
            instrument = registry.get(name)
            if kind == "counter":
                value = float(instrument.value)
                last = self._counter_last.get(name, 0.0)
                delta = value - last
                self._counter_last[name] = value
                window["counters"][name] = {
                    "delta": delta,
                    "rate_per_s": delta * 1e9 / span if span else 0.0,
                }
            elif kind == "gauge":
                window["gauges"][name] = float(instrument())
            elif kind == "time_weighted":
                window["gauges"][name] = float(instrument.value)
            elif kind == "utilization":
                busy, useful = instrument.busy_ns, instrument.useful_ns
                last_busy, last_useful = self._util_last.get(name, (0, 0))
                self._util_last[name] = (busy, useful)
                window["utilization"][name] = {
                    "busy_fraction": (busy - last_busy) / span if span else 0.0,
                    "useful_fraction":
                        (useful - last_useful) / span if span else 0.0,
                }
            else:  # histogram
                samples = instrument.samples
                offset = self._hist_offset.get(name, 0)
                fresh = samples[offset:]
                self._hist_offset[name] = len(samples)
                window["histograms"][name] = _digest(fresh)

    # -- reading -----------------------------------------------------------

    @property
    def windows(self) -> List[Dict[str, Any]]:
        return self._windows

    def series(self, name: str) -> List[float]:
        """One value per window for the named metric.

        Counters and rate watches yield their per-second rate, gauges
        their sampled value, histograms their windowed p99 (0.0 for empty
        windows), utilization its busy fraction.
        """
        out: List[float] = []
        for window in self._windows:
            if name in window["counters"]:
                out.append(window["counters"][name]["rate_per_s"])
            elif name in window["rates"]:
                out.append(window["rates"][name]["rate_per_s"])
            elif name in window["gauges"]:
                out.append(window["gauges"][name])
            elif name in window["utilization"]:
                out.append(window["utilization"][name]["busy_fraction"])
            elif name in window["histograms"]:
                digest = window["histograms"][name]
                out.append(digest["p99"] if digest["count"] else 0.0)
            else:
                out.append(0.0)
        return out

    def metric_names(self) -> List[str]:
        """Every metric name appearing in any window, sorted."""
        names: Set[str] = set()
        for window in self._windows:
            for group in ("counters", "gauges", "histograms",
                          "utilization", "rates"):
                names.update(window[group])
        return sorted(names)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (schema ``repro-timeline/v1``)."""
        return {
            "schema": "repro-timeline/v1",
            "width_ns": self.width_ns,
            "start_ns": self._start_ns,
            "windows": self._windows,
        }


def _digest(samples: Sequence[float]) -> Dict[str, Any]:
    if not samples:
        return {"count": 0, "mean": None, "p50": None, "p95": None,
                "p99": None}
    data = sorted(samples)
    return {
        "count": len(data),
        "mean": sum(data) / len(data),
        "p50": percentile(data, 50),
        "p95": percentile(data, 95),
        "p99": percentile(data, 99),
    }


# -- text dashboard --------------------------------------------------------


def sparkline(values: Sequence[float]) -> str:
    """Render ``values`` as a unicode sparkline (empty input → '')."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return _SPARK_GLYPHS[0] * len(values)
    span = hi - lo
    top = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[int((v - lo) / span * top + 0.5)] for v in values)


def render_dashboard(timeline: Timeline,
                     names: Optional[Sequence[str]] = None,
                     limit: int = 24) -> str:
    """Text sparkline dashboard: one row per metric series.

    With no explicit ``names`` the busiest series are picked: rate
    watches first, then counters by total delta, then histogram p99s and
    utilization, capped at ``limit`` rows.
    """
    windows = timeline.windows
    lines = [
        f"timeline: {len(windows)} windows × {timeline.width_ns} ns"
    ]
    if not windows:
        return "\n".join(lines + ["(no windows closed)"])
    if names is None:
        names = _default_dashboard_names(timeline, limit)
    width = max((len(n) for n in names), default=0)
    for name in names:
        series = timeline.series(name)
        last = series[-1] if series else 0.0
        lines.append(
            f"{name:<{width}}  {sparkline(series)}  "
            f"min={min(series):.3g} max={max(series):.3g} last={last:.3g}")
    return "\n".join(lines)


def _default_dashboard_names(timeline: Timeline, limit: int) -> List[str]:
    windows = timeline.windows
    rate_names = sorted(
        {name for w in windows for name in w["rates"]})
    totals: Dict[str, float] = {}
    for window in windows:
        for name, cell in window["counters"].items():
            totals[name] = totals.get(name, 0.0) + cell["delta"]
    counter_names = [name for name, total in
                     sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
                     if total > 0]
    hist_names = sorted(
        {name for w in windows for name, d in w["histograms"].items()
         if d["count"]})
    util_names = sorted(
        {name for w in windows for name in w["utilization"]})
    picked: List[str] = []
    for group in (rate_names, counter_names, hist_names, util_names):
        for name in group:
            if name not in picked:
                picked.append(name)
            if len(picked) >= limit:
                return picked
    return picked
