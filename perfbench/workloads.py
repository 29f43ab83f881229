"""The benchmark's three workloads: real artifact points of the simulator.

Each workload has a ``setup(seed, spans, costs=None)`` function that builds
its testbed(s) through ``build_testbed(TestbedSpec(...))``, attaches
devices and constructs the workload classes (and, on ``observe_rr``, binds
the telemetry session).  It returns a :class:`Prepared` whose ``run``
advances the simulation, extracts the artifact's results and returns a
fingerprint of every simulated statistic.  The caller times the phases and
audits the finished testbeds with ``verify_testbed``.

Traffic is closed-loop everywhere: each netperf client keeps one
transaction outstanding and each filebench thread waits for its own I/O.
The workload seed reaches the simulator only through ``TestbedSpec.seed``
and the ``tb.rng.stream(...)`` substreams handed to the workload classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster import Testbed, TestbedSpec, build_testbed
from repro.sim import ms
from repro.telemetry import (
    DEFAULT_WINDOW_NS,
    SloSpec,
    TelemetrySession,
    to_chrome_trace_json,
)
from repro.workloads import FilebenchRandomIO, NetperfRR

from spans import Spans

# Simulated run lengths, chosen so one point costs under a host second on
# a 2-core x86 host: a 40-second run then holds 40 or more points, whose
# median rides out the seconds-long slowdowns of a shared host.
WARMUP_NS = ms(2)

RR_SCALE = {"model": "vrio", "topology": "scalability", "n_vmhosts": 4,
            "vms_per_host": 4, "sidecores": 2, "model_numa": True,
            "run_ns": ms(5), "warmup_ns": WARMUP_NS}

BLOCK_MIX = {"models": ["vrio", "baseline"], "vms": 4, "readers": 2,
             "writers": 2, "io_bytes": 4096, "run_ns": ms(10),
             "warmup_ns": WARMUP_NS}

OBSERVE_RR = {"model": "vrio", "vms": 4, "run_ns": ms(6),
              "warmup_ns": WARMUP_NS, "window_ns": DEFAULT_WINDOW_NS}

Fingerprint = Dict[str, float]


@dataclass
class Prepared:
    """A set-up point, ready to run once."""

    testbeds: List[Tuple[str, Testbed]]     # (fingerprint prefix, testbed)
    sim_ns: int                             # simulated time ``run`` covers
    run: Callable[[Spans], Fingerprint]


def _cores(tb: Testbed) -> list:
    """Every core whose ledger the run touched, each once, in build order."""
    seen, out = set(), []
    candidates = ([vm.vcpu for vm in tb.vms] + list(tb.service_cores)
                  + [client.core for client in tb.clients])
    for core in candidates:
        if id(core) not in seen:
            seen.add(id(core))
            out.append(core)
    return out


def testbed_fingerprint(tb: Testbed, prefix: str = "") -> Fingerprint:
    """Every simulated statistic the testbed exposes publicly, flattened."""
    fp: Fingerprint = {f"{prefix}env.now": tb.env.now}
    for col, value in tb.stats.snapshot().items():
        fp[f"{prefix}stats.{col}"] = value
    for i, port in enumerate(tb.ports):
        for attr in ("tx_messages", "rx_messages", "tx_bytes", "rx_bytes"):
            fp[f"{prefix}port.{i}.{attr}"] = getattr(port, attr).value
    for i, client in enumerate(tb.clients):
        for attr in ("tx_messages", "rx_messages"):
            fp[f"{prefix}client.{i}.{attr}"] = getattr(client, attr).value
    for core in _cores(tb):
        fp[f"{prefix}core.{core.name}.total_cycles"] = core.total_cycles
        fp[f"{prefix}core.{core.name}.busy_ns"] = core.util.busy_ns
    for i, device in enumerate(tb.storage_devices):
        for attr in ("reads", "writes", "bytes_read", "bytes_written",
                     "errors"):
            fp[f"{prefix}storage.{i}.{attr}"] = getattr(device, attr).value
    return fp


def _rr_fingerprint(rrs: List[NetperfRR]) -> Fingerprint:
    fp: Fingerprint = {}
    for i, rr in enumerate(rrs):
        fp[f"rr.{i}.transactions"] = rr.transactions
        fp[f"rr.{i}.mean_latency_ns"] = rr.latency_ns.mean()
    return fp


def _netperf_rr(tb: Testbed, n: int, warmup_ns: int) -> List[NetperfRR]:
    return [NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                      warmup_ns=warmup_ns,
                      rng=tb.rng.stream(f"rr-client-{i}"))
            for i in range(n)]


def setup_rr_scale(seed: int, spans: Spans, costs=None) -> Prepared:
    """Fig. 13a cell: netperf RR from 16 VMs on 4 VMhosts, one IOhost."""
    p = RR_SCALE
    with spans.span("build_testbed"):
        tb = build_testbed(TestbedSpec(
            model=p["model"], topology=p["topology"],
            n_vmhosts=p["n_vmhosts"], vms_per_host=p["vms_per_host"],
            sidecores=p["sidecores"], model_numa=p["model_numa"],
            costs=costs, seed=seed))
    with spans.span("workloads"):
        rrs = _netperf_rr(tb, len(tb.vms), p["warmup_ns"])

    def run(spans: Spans) -> Fingerprint:
        with spans.span("env.run"):
            tb.env.run(until=p["run_ns"])
        with spans.span("extract"):
            fp = testbed_fingerprint(tb)
            fp.update(_rr_fingerprint(rrs))
        return fp

    return Prepared([("", tb)], p["run_ns"], run)


def setup_block_mix(seed: int, spans: Spans, costs=None) -> Prepared:
    """Fig. 14 "2 pairs" cell on vrio and on baseline, one after the other."""
    p = BLOCK_MIX
    setups = []
    for model in p["models"]:
        with spans.span("build_testbed"):
            tb = build_testbed(TestbedSpec(
                model=model, vms_per_host=p["vms"], with_clients=False,
                costs=costs, seed=seed))
        with spans.span("workloads"):
            fbs = [FilebenchRandomIO(
                tb.env, vm, tb.attach_ramdisk(vm),
                tb.rng.stream(f"filebench-{i}"), tb.costs,
                readers=p["readers"], writers=p["writers"],
                io_bytes=p["io_bytes"], warmup_ns=p["warmup_ns"],
                app_dilation=tb.ports[i].app_dilation)
                for i, vm in enumerate(tb.vms)]
        setups.append((model, tb, fbs))

    def run(spans: Spans) -> Fingerprint:
        fp: Fingerprint = {}
        for model, tb, fbs in setups:
            with spans.span("env.run"):
                tb.env.run(until=p["run_ns"])
            with spans.span("extract"):
                fp.update(testbed_fingerprint(tb, prefix=f"{model}."))
                for i, fb in enumerate(fbs):
                    fp[f"{model}.fb.{i}.operations"] = fb.operations
                    fp[f"{model}.fb.{i}.ops_per_sec"] = fb.ops_per_sec()
                    fp[f"{model}.fb.{i}.involuntary_switches"] = (
                        fb.scheduler.involuntary_switches.value)
        return fp

    return Prepared([(f"{model}: ", tb) for model, tb, _ in setups],
                    p["run_ns"] * len(setups), run)


def setup_observe_rr(seed: int, spans: Spans, costs=None) -> Prepared:
    """``repro observe fig7 --timeline --slo --attribution`` with 4 VMs."""
    p = OBSERVE_RR
    # The liveness objective ``repro observe --slo`` applies by default:
    # any window with zero workload throughput is a breach.
    slo = SloSpec(name="observe_rr_slo", max_downtime_ns=0,
                  latency_metric="workload.", throughput_metric="workload.",
                  window_ns=p["window_ns"])
    session = TelemetrySession(timeline_width_ns=p["window_ns"], slos=[slo])
    with spans.span("build_testbed"):
        tb = build_testbed(TestbedSpec(model=p["model"],
                                       vms_per_host=p["vms"], costs=costs,
                                       seed=seed))
    with spans.span("telemetry_bind"):
        # What build_testbed does inside ``with session:``.  Binding
        # directly leaves the session's end-of-run flush to ``run``.
        telemetry = session.bind(tb)
    with spans.span("workloads"):
        rrs = _netperf_rr(tb, p["vms"], p["warmup_ns"])
        telemetry.register_workloads(rrs)

    def run(spans: Spans) -> Fingerprint:
        with spans.span("env.run"):
            tb.env.run(until=p["run_ns"])
        with spans.span("extract"):
            telemetry.finish()
            fp = testbed_fingerprint(tb)
            fp.update(_rr_fingerprint(rrs))
        with spans.span("export.report"):
            telemetry.report(title=f"observe_rr (seed {seed})")
        with spans.span("attribution"):
            attribution = telemetry.attribution()
        with spans.span("export.chrome_trace"):
            to_chrome_trace_json(telemetry.tracer)
        with spans.span("export.timeline"):
            payload = telemetry.timeline.to_payload()
        for stage, total in sorted(attribution.totals().items()):
            fp[f"attribution.{stage}"] = total
        fp["attribution.traces"] = len(attribution.traces)
        fp["timeline.windows"] = len(payload["windows"])
        fp["slo.violations"] = len(telemetry.probes[0].violations)
        return fp

    return Prepared([("", tb)], p["run_ns"], run)


WORKLOADS: Dict[str, Callable[..., Prepared]] = {
    "rr_scale": setup_rr_scale,
    "block_mix": setup_block_mix,
    "observe_rr": setup_observe_rr,
}

PARAMS: Dict[str, dict] = {
    "rr_scale": RR_SCALE,
    "block_mix": BLOCK_MIX,
    "observe_rr": OBSERVE_RR,
}
