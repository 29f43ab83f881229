"""Differential check of the scheduler's two run loops on every scenario.

``Environment.run`` dispatches through a fast loop while no monitor is
attached and through the monitored loop otherwise; both drain the same
ready deque and heap.  Every registered scenario attaches an
``EngineMonitor``, so the session-cached runs take the monitored loop.
Here each scenario reruns with that monitor built but never attached,
which takes the fast loop, and its canonical metrics JSON and committed
golden fingerprint must hold byte for byte.  The only exceptions are the
two counts that exist only because a monitor watched the run.

A telemetry session always attaches its own flight recorder, so its runs
stay on the monitored loop; for a representative scenario the metrics
snapshot and Chrome-trace export must not depend on whether the
``EngineMonitor`` watches alongside it.
"""

import json
from typing import Any, Callable, Dict

import pytest

from repro.telemetry import TelemetrySession
from repro.testing import (
    compare_metrics,
    golden_path,
    load_golden,
    run_scenario,
    scenario_names,
)
from repro.testing.invariants import EngineMonitor

MONITOR_COUNTS = ("sim.steps", "sim.events")


def _unattached(cls, env):
    return cls(env)


def _run(name: str, engine_monitor: bool, telemetry: bool = False):
    """Run ``name``, attaching its ``EngineMonitor`` or leaving it idle."""
    with pytest.MonkeyPatch.context() as patch:
        if not engine_monitor:
            patch.setattr(EngineMonitor, "attach", classmethod(_unattached))
        if telemetry:
            with TelemetrySession() as bound:
                result = run_scenario(name)
            return result, bound.for_testbed(result.testbed)
        return run_scenario(name), None


def _observed(metrics: Dict[str, Any]) -> str:
    """Canonical bytes of every metric a monitor does not produce."""
    kept = {k: v for k, v in metrics.items() if k not in MONITOR_COUNTS}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def fast_run() -> Callable[[str], Dict[str, Any]]:
    """Module-cached fast-loop metrics: ``fast_run(name)``."""
    cache: Dict[str, Dict[str, Any]] = {}

    def run(name: str) -> Dict[str, Any]:
        if name not in cache:
            result, _ = _run(name, engine_monitor=False)
            # The monitor never saw a step: the run took the fast loop.
            assert result.monitor.steps == 0
            cache[name] = result.metrics
        return cache[name]

    return run


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_identical_under_all_schedulers(name, scenario_run,
                                                 fast_run):
    assert _observed(fast_run(name)) == _observed(scenario_run(name).metrics)


@pytest.mark.parametrize("name", scenario_names())
def test_goldens_hold_under_heap_scheduler(name, fast_run):
    if not golden_path(name).exists():
        pytest.skip(f"no golden committed for {name}")
    golden = {k: v for k, v in load_golden(name).items()
              if k not in MONITOR_COUNTS}
    actual = {k: v for k, v in fast_run(name).items()
              if k not in MONITOR_COUNTS}
    assert compare_metrics(golden, actual) == []


def _normalize_chrome_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite raw trace ids to dense first-appearance indexes.

    Message/request ids come from process-global counters, so their
    absolute values depend on how many runs preceded this one in the
    process; this maps the raw copy kept in ``args`` to dense indexes so
    two runs of the same schedule compare byte-identical.
    """
    ids: Dict[str, str] = {}
    events = []
    for record in doc.get("traceEvents", []):
        args = record.get("args", {})
        raw = args.get("trace_id")
        if raw is not None:
            args = dict(args,
                        trace_id=ids.setdefault(raw, str(len(ids) + 1)))
            record = dict(record, args=args)
        events.append(record)
    return dict(doc, traceEvents=events)


def _exports(engine_monitor: bool) -> Dict[str, str]:
    result, bound = _run("apache_vrio", engine_monitor, telemetry=True)
    assert bound is not None
    return {
        "metrics": _observed(result.metrics),
        "telemetry_metrics": json.dumps(bound.snapshot(), sort_keys=True,
                                        default=str),
        "chrome_trace": json.dumps(
            _normalize_chrome_trace(bound.chrome_trace()), sort_keys=True,
            default=str),
    }


def test_telemetry_exports_identical():
    watched = _exports(engine_monitor=True)
    alone = _exports(engine_monitor=False)
    for kind in watched:
        assert alone[kind] == watched[kind], kind
    assert json.loads(watched["chrome_trace"])["traceEvents"]
