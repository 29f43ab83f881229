"""One-pass trace decomposition: equivalence and linear-pass guards.

``markers_by_trace`` groups every trace's markers in a single pass over
the tracer.  These tests hold it to the per-trace scan it replaced (kept
below as the oracle) and count how often each tracer record is visited,
so a reintroduced per-trace scan fails deterministically.
"""

from types import SimpleNamespace

import pytest

from repro.sim import Tracer
from repro.telemetry import (
    FlightRecorder,
    LatencyAttribution,
    MetricsRegistry,
    TelemetrySession,
    attribute,
    markers_by_trace,
    text_report,
)
from repro.telemetry import attribution as attribution_module
from repro.testing import run_scenario


def _oracle_trace_markers(tracer, trace_id):
    """The per-trace full scan: one trace's ``(at_ns, label)`` markers."""
    keyed = []
    seq = 0
    for event in tracer.events:
        if event.trace_id == trace_id:
            keyed.append((event.at_ns, seq, event.name))
        seq += 1
    for span in tracer.spans:
        if span.trace_id == trace_id:
            keyed.append((span.start_ns, seq, span.name))
            if span.end_ns is not None:
                keyed.append((span.end_ns, seq + 1, f"{span.name}_end"))
        seq += 2
    keyed.sort(key=lambda m: (m[0], m[1]))
    return [(at_ns, label) for at_ns, _seq, label in keyed]


class _Clock:
    """Stands in for the environment: the tracer only reads ``now``."""

    def __init__(self) -> None:
        self.now = 0


def _tracer(capacity=100_000):
    clock = _Clock()
    return clock, Tracer(clock, capacity=capacity)


def _assert_matches_oracle(tracer):
    grouped = markers_by_trace(tracer)
    assert list(grouped) == tracer.trace_ids()
    for trace_id in tracer.trace_ids():
        assert grouped[trace_id] == _oracle_trace_markers(tracer, trace_id)
    oracle = LatencyAttribution()
    for trace_id in tracer.trace_ids():
        oracle.add_trace(trace_id, _oracle_trace_markers(tracer, trace_id))
    built = attribute(tracer)
    assert [(t.trace_id, t.stages, t.end_to_end) for t in built.traces] == [
        (t.trace_id, t.stages, t.end_to_end) for t in oracle.traces]
    assert list(built.stages) == list(oracle.stages)
    assert built.totals() == oracle.totals()
    return grouped


# -- equivalence with the per-trace scan -------------------------------------

def test_interleaved_trace_ids_group_like_the_scan():
    clock, tracer = _tracer()
    spans = {}
    for step, trace_id in enumerate(["a", "b", "a", "c", "b", "c", "a"]):
        clock.now = 10 * step
        tracer.point(trace_id, f"p{step}")
        if trace_id in spans:
            tracer.end(spans.pop(trace_id))
        else:
            spans[trace_id] = tracer.begin(trace_id, f"s{step}")
    grouped = _assert_matches_oracle(tracer)
    assert list(grouped) == ["a", "b", "c"]
    assert grouped["a"] == [(0, "p0"), (0, "s0"), (20, "p2"), (20, "s0_end"),
                            (60, "p6"), (60, "s6")]


def test_point_and_span_start_at_same_timestamp():
    clock, tracer = _tracer()
    clock.now = 5
    span = tracer.begin("r", "service")
    tracer.point("r", "wake")  # recorded after, same clock
    clock.now = 9
    tracer.end(span)
    tracer.point("r", "tx_done")
    grouped = _assert_matches_oracle(tracer)
    # Events sort before spans on a clock tie, whatever the record order
    # and whatever the labels' alphabetical order.
    assert grouped["r"] == [(5, "wake"), (5, "service"),
                            (9, "tx_done"), (9, "service_end")]


def test_open_spans_contribute_no_end_marker():
    clock, tracer = _tracer()
    tracer.point("r", "guest_tx")
    clock.now = 3
    tracer.begin("r", "iohost_service")
    tracer.begin("open_only", "device_io")
    grouped = _assert_matches_oracle(tracer)
    assert grouped["r"] == [(0, "guest_tx"), (3, "iohost_service")]
    assert grouped["open_only"] == [(3, "device_io")]
    assert [t.trace_id for t in attribute(tracer).traces] == ["r"]


def test_evicting_tracer_groups_only_retained_records():
    clock, tracer = _tracer(capacity=3)
    for i in range(5):
        clock.now = i
        tracer.point(i % 2, f"p{i}")
        span = tracer.begin(i % 3, f"s{i}")
        clock.now = i + 1
        if i % 2:
            tracer.end(span)
    assert tracer.dropped == 4
    assert len(tracer.events) == len(tracer.spans) == 3
    _assert_matches_oracle(tracer)


@pytest.mark.parametrize("seed", [0, 3])
def test_real_scenario_groups_like_the_scan(seed):
    with TelemetrySession() as session:
        result = run_scenario("rr_vrio", seed=seed)
    tracer = session.for_testbed(result.testbed).tracer
    assert len(tracer.trace_ids()) > 100
    _assert_matches_oracle(tracer)


# -- linear-pass guard --------------------------------------------------------

class _Counting:
    """A tracer record deque that counts the items it yields."""

    def __init__(self, records) -> None:
        self.records = records
        self.yielded = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        for record in self.records:
            self.yielded += 1
            yield record


def _counted_tracer(n_traces):
    clock, tracer = _tracer()
    for trace_id in range(n_traces):
        clock.now = 100 * trace_id
        tracer.point(trace_id, "guest_tx")
        clock.now += 20
        span = tracer.begin(trace_id, "iohost_service")
        clock.now += 30
        tracer.end(span)
        clock.now += 10
        tracer.point(trace_id, "guest_deliver")
    tracer.events = _Counting(tracer.events)
    tracer.spans = _Counting(tracer.spans)
    return tracer


def _visits_per_record(tracer):
    return (tracer.events.yielded / len(tracer.events),
            tracer.spans.yielded / len(tracer.spans))


@pytest.mark.parametrize("n_traces", [10, 1000])
def test_attribute_visits_each_record_once(n_traces):
    tracer = _counted_tracer(n_traces)
    assert len(attribute(tracer).traces) == n_traces
    assert _visits_per_record(tracer) == (1.0, 1.0)


@pytest.mark.parametrize("n_traces", [10, 1000])
def test_text_report_visits_each_record_once(n_traces):
    tracer = _counted_tracer(n_traces)
    telemetry = SimpleNamespace(tracer=tracer, registry=MetricsRegistry(),
                                recorder=FlightRecorder())
    text = text_report(telemetry)
    assert f"({n_traces} traced requests, us)" in text
    assert _visits_per_record(tracer) == (1.0, 1.0)


def test_observe_cli_builds_the_decomposition_once(tmp_path, monkeypatch,
                                                   capsys):
    from repro.cli import main

    calls = []
    original = attribution_module.markers_by_trace

    def counted(tracer):
        calls.append(tracer)
        return original(tracer)

    monkeypatch.setattr(attribution_module, "markers_by_trace", counted)
    monkeypatch.chdir(tmp_path)
    assert main(["observe", "fig7", "--attribution",
                 "--flamegraph", "fg"]) == 0
    out = capsys.readouterr().out
    assert "stage latency breakdown" in out
    assert "latency attribution" in out
    assert (tmp_path / "fg.speedscope.json").exists()
    assert len(calls) == 1
