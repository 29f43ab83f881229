"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show every reproducible artifact and its description.
run ARTIFACT [--quick] [--chart] [--models A,B,...] [--jobs N]
             [--no-cache] [--cache-dir D]
    Regenerate one artifact (e.g. ``fig7``, ``tab3``, ``energy``) — or
    ``all`` of them — and print the reproduced rows; ``--chart`` adds an
    ASCII chart for the series-valued figures.  ``--models`` restricts a
    model-comparison artifact to a comma-separated subset of registered
    model ids (unknown ids exit 2 with the valid listing).  ``--jobs``
    fans sweep points out over worker processes; results are
    byte-identical at any job count.  Unchanged sweep points replay from
    the persistent result cache (disable with ``--no-cache``).
models [--list | --json]
    Describe every I/O model in the registry: one-line description and
    capability flags, generated from ``repro.iomodels.registry``.
costs
    Dump the calibrated cost-model constants.
verify [--scenario NAME] [--update-goldens] [--list] [--telemetry]
       [--lint] [--faults] [--observe] [--jobs N] [--no-cache]
       [--cache-dir D]
    Run the verification harness: every canonical scenario is executed,
    audited against the simulation invariants, re-run to prove bit
    determinism, and compared to its committed golden fingerprint.
    ``--telemetry`` adds a pass validating each scenario's metrics and
    Chrome-trace exports.  ``--lint`` adds the simlint static-analysis
    pass over the source tree, ``--faults`` the fault-campaign smoke and
    ``--observe`` the windowed-telemetry smoke.  Scenarios fan out over
    ``--jobs`` processes and replay from the result cache when the code
    is unchanged.
lint [PATH ...] [--json] [--baseline FILE] [--update-baseline]
     [--only CODE] [--list-rules] [--project] [--jobs N] [--no-cache]
     [--changed]
    Run simlint, the AST-based static analyzer enforcing the simulator's
    invariants: SIM1xx determinism, SIM2xx cycle-ledger integrity,
    SIM3xx event-callback safety, SIM4xx telemetry hygiene, SIM5xx model
    catalog.  ``--project`` adds the whole-program SIM6xx rules (module
    graph, call graph, dataflow: RNG provenance, ledger flow, callback
    escape, telemetry reachability), with per-file symbol summaries
    cached by content hash (``--no-cache`` bypasses; ``--jobs`` fans
    cold parsing out over worker processes).  ``--changed`` lints only
    files differing from ``git merge-base HEAD main``.  Exit 0 when
    clean, 1 on findings, 2 on usage errors.
faults [CAMPAIGN ...] [--all] [--list] [--seed N] [--jobs N]
    Run fault-injection campaigns (IOhost crash, link loss/blackout, NIC
    failure, storage error bursts, sidecore stalls, live migration) and
    print each recovery report: detection latency, failover downtime,
    requests lost/retried/recovered, and throughput before/during/after
    the fault.  Reports are byte-identical per seed and cache/parallelize
    like any sweep.  ``verify --faults`` runs the quick smoke variant.
observe SCENARIO [--seed N] [--trace PATH] [--json FILE] [--csv FILE]
        [--timeline] [--window NS] [--timeline-json FILE]
        [--timeline-csv FILE] [--attribution] [--flamegraph BASE]
        [--slo] [--slo-p99-us US] [--slo-floor OPS] [--slo-downtime-us US]
    Run one scenario (or a figure alias like ``fig12``) under full
    telemetry: print the per-stage latency breakdown and key metrics and
    write a Chrome ``trace_event`` JSON file.  ``--timeline`` adds the
    windowed sparkline dashboard (exportable as schema-validated JSON /
    CSV), ``--attribution`` the queueing-vs-service decomposition with
    the p99-dominating stage, ``--flamegraph`` folded-stack + speedscope
    profiles, and the ``--slo`` family evaluates a declarative SLO probe
    per window.  Unknown scenarios exit 2 with the valid listing.
bench [ARTIFACT ...] [--quick] [--jobs N] [--out PATH]
    Time each artifact's regeneration three ways — serial cold, parallel
    cold, and warm-cache — and write the timings to ``BENCH_sweep.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Tuple, Union

from . import experiments as ex
from .analysis import series_by_model
from .analysis.charts import ascii_chart
from .experiments import SweepCache, sweep
from .iomodels.costs import DEFAULT_COSTS
from .sim import ms

__all__ = ["main", "ARTIFACTS"]


def _quick_ns(quick: bool) -> int:
    return ms(15) if quick else ms(30)


def _fig05(quick, **kw):
    points = ex.run_fig05(vm_counts=(1, 4, 7) if quick else range(1, 8),
                          run_ns=_quick_ns(quick), **kw)
    return ex.format_fig05(points), points


def _fig07(quick, **kw):
    points = ex.run_fig07(vm_counts=(1, 4, 7) if quick else range(1, 8),
                          run_ns=_quick_ns(quick), **kw)
    return ex.format_fig07(points), points


def _fig09(quick, **kw):
    points = ex.run_fig09(vm_counts=(1, 4, 7) if quick else range(1, 8),
                          run_ns=_quick_ns(quick), **kw)
    return ex.format_fig09(points), points


def _dc_scale(quick, **kw):
    racks = (1, 2) if quick else (1, 2, 4)
    users = (500, 2_000) if quick else (1_000, 10_000)
    points = ex.run_dc_scale(rack_counts=racks, user_counts=users,
                             run_ns=ms(4) if quick else ms(8), **kw)
    return ex.format_dc_scale(points), points


def _fig13(quick, **kw):
    vms = (4, 12, 28) if quick else (4, 8, 12, 16, 20, 24, 28)
    text = ex.format_fig13(ex.run_fig13a(total_vms=vms,
                                         run_ns=_quick_ns(quick), **kw),
                           ex.run_fig13b(total_vms=vms,
                                         run_ns=_quick_ns(quick), **kw))
    return text, None


# artifact -> (description, runner(quick, jobs=, cache=) -> (text, points))
ARTIFACTS: Dict[str, Tuple[str, Callable]] = {
    "fig1": ("CPU vs NIC upgrade price ratios",
             lambda q, **kw: (ex.format_fig01(ex.run_fig01(**kw)), None)),
    "tab1": ("Dell R930 server configurations",
             lambda q, **kw: (ex.format_tab01(ex.run_tab01(**kw)), None)),
    "tab2": ("Elvis vs vRIO rack prices",
             lambda q, **kw: (ex.format_tab02(ex.run_tab02(**kw)), None)),
    "fig3": ("SSD consolidation price ratios",
             lambda q, **kw: (ex.format_fig03(ex.run_fig03(**kw)), None)),
    "tab3": ("per request-response virtualization events",
             lambda q, **kw: (ex.format_tab03(ex.run_tab03(**kw)), None)),
    "fig5": ("ApacheBench throughput, all five models", _fig05),
    "fig7": ("netperf RR latency vs number of VMs", _fig07),
    "fig8": ("vRIO latency gap and IOhost contention",
             lambda q, **kw: (ex.format_fig08(ex.run_fig08(
                 vm_counts=(1, 4, 7) if q else range(1, 8),
                 run_ns=_quick_ns(q), **kw)), None)),
    "tab4": ("tail latency percentiles",
             lambda q, **kw: (ex.format_tab04(ex.run_tab04(
                 run_ns=ms(150) if q else ms(400), **kw)), None)),
    "fig9": ("netperf 64B stream throughput", _fig09),
    "fig10": ("per-packet processing cycles",
              lambda q, **kw: (ex.format_fig10(
                  ex.run_fig10(_quick_ns(q), **kw)), None)),
    "fig11": ("equal-core throughput comparison",
              lambda q, **kw: (ex.format_fig11(
                  ex.run_fig11(_quick_ns(q), **kw)), None)),
    "fig12": ("memcached + Apache macrobenchmarks",
              lambda q, **kw: (ex.format_fig12(ex.run_fig12(
                  vm_counts=(1, 4, 7) if q else range(1, 8),
                  run_ns=_quick_ns(q), **kw)), None)),
    "fig13": ("IOhost scalability (4 VMhosts)", _fig13),
    "fig14": ("filebench on a remote ramdisk",
              lambda q, **kw: (ex.format_fig14(ex.run_fig14(
                  vm_counts=(1, 4, 7) if q else range(1, 8),
                  run_ns=_quick_ns(q), **kw)), None)),
    "fig14ssd": ("the SATA-SSD variant of fig14",
                 lambda q, **kw: (ex.format_fig14_ssd(ex.run_fig14_ssd(
                     vm_counts=(1, 4), run_ns=ms(50), **kw)), None)),
    "fig15": ("sidecore utilization under consolidation",
              lambda q, **kw: (ex.format_fig15(
                  ex.run_fig15(ms(50), **kw)), None)),
    "fig16a": ("consolidation tradeoff 2=>1",
               lambda q, **kw: (ex.format_fig16a(
                   ex.run_fig16a(ms(40), **kw)), None)),
    "fig16b": ("load imbalance 2=>2 with AES",
               lambda q, **kw: (ex.format_fig16b(
                   ex.run_fig16b(ms(40), **kw)), None)),
    "energy": ("mwait vs polling sidecores (extension)",
               lambda q, **kw: (ex.format_energy(ex.run_energy(
                   vm_counts=(1, 4, 7), run_ns=_quick_ns(q), **kw)), None)),
    "dc_scale": ("multi-rack fabric under open-loop load (extension)",
                 _dc_scale),
}

# Artifacts whose run_* functions take a ``models=`` registry filter, so
# ``repro run FIG --models a,b,c`` can restrict the cast.  The remaining
# artifacts have fixed casts (price models, vRIO-only topologies, the
# vrio-vs-optimum latency-gap study, ...).
MODEL_FILTERABLE = frozenset((
    "tab3", "fig5", "fig7", "tab4", "fig9", "fig10", "fig12",
    "fig14", "fig14ssd"))


def _jobs_arg(value: str) -> Union[int, str]:
    """``--jobs`` accepts a positive integer or ``auto`` (= all cores)."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer or 'auto': {value!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1: {value!r}")
    return count


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                        help="worker processes for sweep points (an "
                             "integer or 'auto' for all cores; results "
                             "are identical at any value)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every sweep point instead of "
                             "replaying unchanged ones from the cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ./.repro_cache)")


def _make_cache(args) -> Optional[SweepCache]:
    if args.no_cache:
        return None
    return SweepCache(args.cache_dir)

def _trace_one_request() -> None:
    """Run one request-response through vRIO with tracing and print the
    lifecycle of both messages (request in, response out)."""
    from .cluster import TestbedSpec, build_testbed
    from .sim import Tracer

    testbed = build_testbed(TestbedSpec(model="vrio"))
    tracer = Tracer(testbed.env)
    testbed.model.tracer = tracer
    port, client = testbed.ports[0], testbed.clients[0]
    responses = {}

    def serve(message):
        responses["response"] = port.send(message.src, 128)

    port.receive_handler = serve
    client.receive_handler = lambda m: None
    request = client.send(port.mac, 64)
    testbed.env.run(until=ms(5))
    print("request (load generator -> IOhost -> VM):")
    print(tracer.format_trace(request.message_id))
    if "response" in responses:
        print("\nresponse (VM -> IOhost -> load generator):")
        print(tracer.format_trace(responses["response"].message_id))


def _telemetry_smoke(name: str, seed: int) -> Optional[str]:
    """Re-run ``name`` under a telemetry session and validate the outputs.

    Returns None on success, or a short description of what failed.
    Asserts the metrics dump is non-empty and schema-valid and the Chrome
    trace export round-trips as valid ``trace_event`` JSON.
    """
    from .telemetry import (
        TelemetrySession,
        validate_chrome_trace,
        validate_metrics,
    )
    from .testing import run_scenario

    with TelemetrySession() as session:
        result = run_scenario(name, seed=seed)
    telemetry = session.for_testbed(result.testbed)
    if telemetry is None:
        return "testbed was not bound to the telemetry session"
    try:
        validate_metrics(telemetry.snapshot())
        validate_chrome_trace(telemetry.chrome_trace())
    except ValueError as exc:
        return str(exc)
    return None


def _verify_point(params: dict) -> dict:
    """Run one scenario's determinism + invariant audit (sweep-safe).

    Returns a JSON-serializable digest: the determinism verdict, the
    invariant violations as strings, the metrics dict for golden
    comparison in the parent, and the optional telemetry verdict.
    """
    from .testing import check_deterministic, run_scenario, verify_testbed

    name, seed = params["scenario"], params["seed"]
    out: dict = {"det": "ok", "det_problems": []}
    try:
        results = check_deterministic(name, seed=seed)
    except AssertionError as exc:
        # Still audit the single run we can get.
        results = [run_scenario(name, seed=seed)]
        out["det"] = "DIVERGED"
        out["det_problems"].append(str(exc))
    result = results[0]
    out["violations"] = [
        str(v) for v in verify_testbed(result.testbed, result.monitor)]
    out["metrics"] = result.metrics
    if params["telemetry"]:
        out["telemetry_issue"] = _telemetry_smoke(name, seed=seed)
    return out


def _verify_command(args) -> int:
    """Run scenarios through invariants, determinism, and golden checks."""
    from .testing import (
        GoldenMismatch,
        SCENARIOS,
        assert_matches_golden,
        golden_path,
        save_golden,
        scenario_names,
    )

    names = args.scenario or scenario_names()
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}")
        print(f"known: {', '.join(scenario_names())}")
        return 1
    if args.list:
        for name in scenario_names():
            print(f"{name:24s} {SCENARIOS[name].description}")
        return 0

    points = [{"scenario": name, "seed": args.seed,
               "telemetry": bool(args.telemetry)} for name in names]
    outcomes = sweep(points, _verify_point, jobs=args.jobs,
                     artifact="verify", cache=_make_cache(args))

    failures = 0
    header = (f"{'scenario':24s} {'invariants':>10s} {'determinism':>11s} "
              f"{'golden':>8s}")
    if args.telemetry:
        header += f" {'telemetry':>9s}"
    print(header)
    for name, outcome in zip(names, outcomes):
        problems = list(outcome["det_problems"])
        violations = outcome["violations"]
        inv = "ok" if not violations else f"{len(violations)} broken"
        problems.extend(violations)
        metrics = outcome["metrics"]
        if args.update_goldens:
            save_golden(name, metrics)
            golden = "updated"
        elif not golden_path(name).exists():
            golden = "missing"
        else:
            try:
                assert_matches_golden(name, metrics)
                golden = "ok"
            except GoldenMismatch as exc:
                golden = "MISMATCH"
                problems.append(str(exc))
        line = f"{name:24s} {inv:>10s} {outcome['det']:>11s} {golden:>8s}"
        if args.telemetry:
            issue = outcome.get("telemetry_issue")
            if issue is None:
                line += f" {'ok':>9s}"
            else:
                line += f" {'INVALID':>9s}"
                problems.append(f"telemetry: {issue}")
        print(line)
        if problems:
            failures += 1
            for problem in problems:
                for line in str(problem).splitlines():
                    print(f"    {line}")
    if args.faults:
        issue = _fault_smoke_line()
        if issue is not None:
            failures += 1
    if args.lint:
        issue = _lint_smoke_line()
        if issue is not None:
            failures += 1
    if args.observe:
        issue = _observe_smoke_line()
        if issue is not None:
            failures += 1
    if failures:
        print(f"\n{failures} of {len(names)} scenario(s) FAILED")
        return 1
    print(f"\nall {len(names)} scenario(s) verified")
    return 0


def _fault_smoke_line() -> Optional[str]:
    """Run the fault-campaign smoke and print its verdict row."""
    from .faults import run_fault_smoke

    issue = run_fault_smoke(seed=0)
    if issue is None:
        print(f"{'faults':24s} {'ok':>10s}")
    else:
        print(f"{'faults':24s} {'FAILED':>10s}")
        print(f"    {issue}")
    return issue


def _lint_smoke_line() -> Optional[str]:
    """Run simlint (per-file + project rules) and print its verdict row."""
    from .lint import lint_tree

    result = lint_tree(project=True)
    if result.clean:
        print(f"{'lint':24s} {'ok':>10s}")
        return None
    print(f"{'lint':24s} {'FAILED':>10s}")
    for finding in result.all_findings():
        print(f"    {finding.format()}")
    return f"{len(result.all_findings())} lint finding(s)"


def _observe_smoke(name: str = "rr_vrio", seed: int = 0) -> Optional[str]:
    """Validate the windowed-telemetry stack on one scenario.

    Checks that binding a timeline leaves the run's metrics untouched
    (reference-registration: observation must not perturb the schedule),
    that the timeline payload passes its schema validator, that every
    trace's stage decomposition tiles exactly to its end-to-end latency,
    and that the speedscope export is structurally valid.
    """
    from .telemetry import (
        DEFAULT_WINDOW_NS,
        TelemetrySession,
        to_speedscope,
        validate_speedscope,
        validate_timeline,
    )
    from .testing import run_scenario

    reference = run_scenario(name, seed=seed)
    with TelemetrySession(timeline_width_ns=DEFAULT_WINDOW_NS) as session:
        observed = run_scenario(name, seed=seed)
    if observed.metrics != reference.metrics:
        return "timeline-bound run diverged from the reference metrics"
    telemetry = session.for_testbed(observed.testbed)
    timeline = telemetry.timeline
    if not timeline.windows:
        return "timeline closed no windows"
    try:
        validate_timeline(timeline.to_payload())
    except ValueError as exc:
        return f"timeline payload invalid: {exc}"
    attribution = telemetry.attribution()
    if not attribution.traces:
        return "no traces were attributed"
    for trace in attribution.traces:
        total = sum(duration for _stage, duration in trace.stages)
        if total != trace.end_to_end:
            return (f"stage decomposition does not tile trace "
                    f"{trace.trace_id}: {total} != {trace.end_to_end}")
    try:
        validate_speedscope(to_speedscope(attribution, name=name))
        validate_speedscope(to_speedscope(observed.testbed, name=name))
    except ValueError as exc:
        return f"speedscope export invalid: {exc}"
    return None


def _observe_smoke_line() -> Optional[str]:
    """Run the windowed-telemetry smoke and print its verdict row."""
    issue = _observe_smoke()
    if issue is None:
        print(f"{'observe':24s} {'ok':>10s}")
    else:
        print(f"{'observe':24s} {'FAILED':>10s}")
        print(f"    {issue}")
    return issue


def _faults_command(args) -> int:
    """Run fault campaigns and print their recovery reports."""
    from .faults import (
        CAMPAIGNS,
        DEFAULT_CAMPAIGN,
        campaign_names,
        format_report,
        run_campaigns,
    )

    if args.list:
        for name in campaign_names():
            print(f"{name:16s} {CAMPAIGNS[name].description}")
        return 0
    names = args.campaigns or (
        campaign_names() if args.all else [DEFAULT_CAMPAIGN])
    unknown = [n for n in names if n not in CAMPAIGNS]
    if unknown:
        print(f"unknown campaign(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(campaign_names())}", file=sys.stderr)
        return 2
    reports = run_campaigns(names, seed=args.seed, jobs=args.jobs,
                            cache=_make_cache(args))
    unrecovered = 0
    for i, report in enumerate(reports):
        if i:
            print()
        print(format_report(report))
        unrecovered += report["unrecovered"]
    if unrecovered:
        print(f"\n{unrecovered} fault(s) went UNRECOVERED")
        return 1
    return 0


def _bench_command(args) -> int:
    """Time artifact regeneration: serial cold, parallel cold, warm cache.

    Writes ``BENCH_sweep.json`` (or ``--out``) with per-artifact wall
    times and speedups — the repo's performance trajectory record.
    """
    import json
    import os
    import tempfile
    import time

    names = args.artifacts or sorted(ARTIFACTS)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid artifacts: {', '.join(sorted(ARTIFACTS))}",
              file=sys.stderr)
        return 2

    results = []
    for name in names:
        runner = ARTIFACTS[name][1]
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            cold_cache = SweepCache(tmp)
            t0 = time.perf_counter()
            runner(args.quick, jobs=1, cache=cold_cache)
            serial_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            runner(args.quick, jobs=args.jobs, cache=None)
            parallel_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            runner(args.quick, jobs=1, cache=cold_cache)
            warm_s = time.perf_counter() - t0
        row = {
            "artifact": name,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "warm_cache_s": round(warm_s, 4),
            "speedup_parallel": round(serial_s / parallel_s, 2),
            "speedup_warm_cache": round(serial_s / warm_s, 2),
        }
        results.append(row)
        print(f"{name:10s} serial {serial_s:7.2f}s  "
              f"parallel({args.jobs}) {parallel_s:7.2f}s  "
              f"warm cache {warm_s:7.3f}s  "
              f"({row['speedup_warm_cache']:.0f}x)")

    payload = {
        "benchmark": "sweep-executor",
        "quick": bool(args.quick),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\ntimings written to {args.out}")
    return 0


# Figure artifacts accepted by `repro observe` as aliases for the
# scenario reproducing that figure's shape.
_OBSERVE_ALIASES = {
    "fig7": "rr_vrio",
    "fig9": "stream_vrio",
    "fig12": "apache_vrio",
    "fig13": "scalability_vrio",
    "fig14": "filebench_vrio",
}


def _observe_slo_spec(args, scenario: str, width_ns: int):
    """Build the SloSpec requested by the --slo family of flags.

    With no clause flags the probe defaults to a liveness objective
    (``max_downtime_ns=0``): any window with zero workload throughput is
    a violation.
    """
    from .telemetry import SloSpec

    p99 = args.slo_p99_us * 1000.0 if args.slo_p99_us is not None else None
    floor = args.slo_floor
    downtime = (int(args.slo_downtime_us * 1000)
                if args.slo_downtime_us is not None else None)
    if p99 is None and floor is None and downtime is None:
        downtime = 0
    return SloSpec(name=f"{scenario}_slo",
                   p99_latency_ceiling_ns=p99,
                   throughput_floor_per_s=floor,
                   max_downtime_ns=downtime,
                   latency_metric="workload.",
                   throughput_metric="workload.",
                   window_ns=width_ns)


def _observe_command(args) -> int:
    """Run one scenario under full telemetry and report what it did."""
    import json

    from .telemetry import (
        DEFAULT_WINDOW_NS,
        TelemetrySession,
        render_dashboard,
        to_chrome_trace_json,
        to_folded_stacks,
        to_metrics_csv,
        to_metrics_json,
        to_speedscope,
        to_timeline_csv,
        to_timeline_json,
        validate_speedscope,
        validate_timeline,
    )
    from .testing import SCENARIOS, run_scenario, scenario_names

    name = _OBSERVE_ALIASES.get(args.scenario, args.scenario)
    if name not in SCENARIOS:
        print(f"unknown scenario: {args.scenario}", file=sys.stderr)
        print(f"valid scenarios: {', '.join(scenario_names())}",
              file=sys.stderr)
        print("figure aliases: "
              + ", ".join(f"{k}={v}"
                          for k, v in sorted(_OBSERVE_ALIASES.items())),
              file=sys.stderr)
        return 2

    width_ns = args.window or DEFAULT_WINDOW_NS
    want_slo = (args.slo or args.slo_p99_us is not None
                or args.slo_floor is not None
                or args.slo_downtime_us is not None)
    want_timeline = (args.timeline or want_slo
                     or args.timeline_json or args.timeline_csv)
    slos = [_observe_slo_spec(args, name, width_ns)] if want_slo else []
    with TelemetrySession(
            timeline_width_ns=width_ns if want_timeline else None,
            slos=slos) as session:
        result = run_scenario(name, seed=args.seed)
    telemetry = session.for_testbed(result.testbed)
    attribution = telemetry.attribution()
    print(telemetry.report(title=f"{name} (seed {args.seed})",
                           attribution=attribution))

    timeline = telemetry.timeline
    if timeline is not None:
        print()
        print(render_dashboard(timeline))
    for probe in telemetry.probes:
        print()
        spec = probe.spec
        if probe.violations:
            print(f"SLO {spec.name}: {len(probe.violations)} violation(s) "
                  f"in {probe.windows_evaluated} window(s)")
            for v in probe.violations[:8]:
                print(f"  {v.kind:12s} window #{v.window_index} "
                      f"[{v.start_ns}-{v.end_ns})ns observed "
                      f"{v.observed:.6g} vs limit {v.limit:.6g}")
            extra = len(probe.violations) - 8
            if extra > 0:
                print(f"  ... {extra} more")
        else:
            print(f"SLO {spec.name}: met in all "
                  f"{probe.windows_evaluated} window(s)")
    if args.attribution:
        print()
        print(attribution.format())

    trace_path = args.trace or f"{name}.trace.json"
    with open(trace_path, "w") as fh:
        fh.write(to_chrome_trace_json(telemetry.tracer))
    print(f"\nchrome trace written to {trace_path} "
          f"(load via chrome://tracing or https://ui.perfetto.dev)")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(to_metrics_json(telemetry.snapshot()))
        print(f"metrics JSON written to {args.json}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_metrics_csv(telemetry.snapshot()))
        print(f"metrics CSV written to {args.csv}")
    if args.timeline_json:
        validate_timeline(timeline.to_payload())
        with open(args.timeline_json, "w") as fh:
            fh.write(to_timeline_json(timeline))
        print(f"timeline JSON written to {args.timeline_json} "
              f"({len(timeline.windows)} windows, schema-validated)")
    if args.timeline_csv:
        with open(args.timeline_csv, "w") as fh:
            fh.write(to_timeline_csv(timeline))
        print(f"timeline CSV written to {args.timeline_csv}")
    if args.flamegraph:
        outputs = [
            (f"{args.flamegraph}.folded", attribution.to_folded()),
            (f"{args.flamegraph}.cycles.folded",
             to_folded_stacks(result.testbed)),
        ]
        for source, suffix in ((attribution, "speedscope.json"),
                               (result.testbed, "cycles.speedscope.json")):
            document = to_speedscope(source, name=name)
            validate_speedscope(document)
            outputs.append((f"{args.flamegraph}.{suffix}",
                            json.dumps(document, indent=2, sort_keys=True)
                            + "\n"))
        for path, text in outputs:
            with open(path, "w") as fh:
                fh.write(text)
            print(f"flamegraph written to {path}")
    return 0


def _model_flags(info) -> str:
    """One-line capability summary for a registered model."""
    caps = info.capabilities
    flags = []
    if caps.net:
        flags.append("net")
    if caps.block:
        flags.append("block")
    if caps.polling:
        flags.append("polling")
    flags.append("exitless" if caps.exitless else "interrupt-driven")
    if caps.ablation:
        flags.append("ablation")
    flags.append("topologies=" + ",".join(caps.topologies))
    return " ".join(flags)


def _format_model_help() -> str:
    """Registry-generated replacement for the old hand-written model help."""
    from .iomodels.registry import all_models
    import textwrap

    infos = all_models()
    lines = [f"The {len(infos)} registered I/O model configurations "
             f"(paper §2 + ROADMAP item 3; see DESIGN.md §14):", ""]
    for info in infos:
        body = textwrap.wrap(info.description, width=66)
        lines.append(f"{info.name:12s} {body[0]}")
        for continuation in body[1:]:
            lines.append(f"{'':12s} {continuation}")
        lines.append(f"{'':12s} [{_model_flags(info)}]")
    return "\n".join(lines)


def _models_command(args) -> int:
    from .iomodels.registry import all_models, model_names

    if args.list:
        for name in model_names():
            print(name)
        return 0
    if args.json:
        import json
        payload = [{"name": info.name,
                    "description": info.description,
                    "net": info.capabilities.net,
                    "block": info.capabilities.block,
                    "polling": info.capabilities.polling,
                    "exitless": info.capabilities.exitless,
                    "ablation": info.capabilities.ablation,
                    "topologies": list(info.capabilities.topologies)}
                   for info in all_models()]
        print(json.dumps(payload, indent=2))
        return 0
    print(_format_model_help())
    return 0


def _parse_models_filter(spec: str) -> Union[Tuple[str, ...], int]:
    """Parse/validate a ``--models a,b,c`` value; 2 on a usage error."""
    from .iomodels.registry import model_names

    selected = tuple(m.strip() for m in spec.split(",") if m.strip())
    if not selected:
        print("--models needs at least one model id", file=sys.stderr)
        print(f"valid models: {', '.join(model_names())}", file=sys.stderr)
        return 2
    unknown = [m for m in selected if m not in model_names()]
    if unknown:
        print(f"unknown model{'s' if len(unknown) > 1 else ''}: "
              f"{', '.join(unknown)}", file=sys.stderr)
        print(f"valid models: {', '.join(model_names())}", file=sys.stderr)
        return 2
    return selected


def main(argv: Optional[list] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into head/less that exited early: not an error.
        return 0


def _main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="vRIO (ASPLOS'16) reproduction toolkit")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list reproducible artifacts")
    models_parser = sub.add_parser(
        "models", help="describe the registered I/O models")
    models_parser.add_argument("--list", action="store_true",
                               help="print just the model ids, one per line")
    models_parser.add_argument("--json", action="store_true",
                               help="dump the registry (names, descriptions, "
                                    "capability flags) as JSON")
    sub.add_parser("costs", help="dump the calibrated cost constants")
    sub.add_parser("trace", help="trace one request-response through vRIO")
    run_parser = sub.add_parser(
        "run", help="regenerate one artifact (or 'all')")
    run_parser.add_argument("artifact", metavar="ARTIFACT",
                            help="artifact id (see 'repro list'), or "
                                 "'all' for every artifact")
    run_parser.add_argument("--quick", action="store_true",
                            help="coarser sweep, shorter runs")
    run_parser.add_argument("--chart", action="store_true",
                            help="also render an ASCII chart (series "
                                 "figures only)")
    run_parser.add_argument("--models", metavar="A,B,...", default=None,
                            help="restrict a model-comparison artifact to "
                                 "these registered model ids (comma-"
                                 "separated; see 'repro models --list')")
    _add_sweep_flags(run_parser)
    verify_parser = sub.add_parser(
        "verify", help="run the verification harness")
    _add_sweep_flags(verify_parser)
    verify_parser.add_argument("--scenario", action="append", default=None,
                               metavar="NAME",
                               help="verify only this scenario (repeatable)")
    verify_parser.add_argument("--seed", type=int, default=0,
                               help="master RNG seed for the runs")
    verify_parser.add_argument("--update-goldens", action="store_true",
                               help="rewrite the golden fingerprints "
                                    "instead of comparing")
    verify_parser.add_argument("--list", action="store_true",
                               help="list scenarios and exit")
    verify_parser.add_argument("--telemetry", action="store_true",
                               help="also re-run each scenario under a "
                                    "telemetry session and validate its "
                                    "metrics + Chrome-trace exports")
    verify_parser.add_argument("--faults", action="store_true",
                               help="also run the fault-campaign smoke: "
                                    "the IOhost-crash campaign must detect, "
                                    "fail over, and reproduce byte-"
                                    "identically")
    verify_parser.add_argument("--lint", action="store_true",
                               help="also run the simlint static-analysis "
                                    "pass over the source tree")
    verify_parser.add_argument("--observe", action="store_true",
                               help="also run the windowed-telemetry smoke: "
                                    "timeline binding must not perturb the "
                                    "run, the timeline/speedscope exports "
                                    "must be schema-valid, and stage "
                                    "attribution must tile each trace's "
                                    "end-to-end latency exactly")
    lint_parser = sub.add_parser(
        "lint", help="run simlint static analysis over the source tree")
    from .lint import add_lint_arguments
    add_lint_arguments(lint_parser)
    faults_parser = sub.add_parser(
        "faults", help="run fault-injection campaigns")
    faults_parser.add_argument("campaigns", metavar="CAMPAIGN", nargs="*",
                               help="campaign names (default: "
                                    "iohost_crash; see --list)")
    faults_parser.add_argument("--all", action="store_true",
                               help="run every stock campaign")
    faults_parser.add_argument("--list", action="store_true",
                               help="list campaigns and exit")
    faults_parser.add_argument("--seed", type=int, default=0,
                               help="master RNG seed (reports are byte-"
                                    "identical per seed)")
    _add_sweep_flags(faults_parser)
    observe_parser = sub.add_parser(
        "observe", help="run one scenario under full telemetry")
    observe_parser.add_argument("scenario", metavar="SCENARIO",
                                help="scenario name (see verify --list) or "
                                     "a figure alias (fig7, fig9, fig12, "
                                     "fig13, fig14)")
    observe_parser.add_argument("--seed", type=int, default=0,
                                help="master RNG seed for the run")
    observe_parser.add_argument("--trace", metavar="PATH", default=None,
                                help="Chrome trace output path "
                                     "(default: <scenario>.trace.json)")
    observe_parser.add_argument("--json", metavar="FILE", default=None,
                                help="also dump the metrics snapshot as JSON")
    observe_parser.add_argument("--csv", metavar="FILE", default=None,
                                help="also dump the metrics snapshot as CSV")
    observe_parser.add_argument("--timeline", action="store_true",
                                help="bind a windowed timeline and print the "
                                     "per-window sparkline dashboard")
    observe_parser.add_argument("--window", type=int, default=None,
                                metavar="NS",
                                help="timeline window width in simulated ns "
                                     "(default: 500us)")
    observe_parser.add_argument("--timeline-json", metavar="FILE",
                                default=None,
                                help="dump the windowed timeline as JSON "
                                     "(schema repro-timeline/v1)")
    observe_parser.add_argument("--timeline-csv", metavar="FILE",
                                default=None,
                                help="dump the windowed timeline as "
                                     "long-form CSV")
    observe_parser.add_argument("--attribution", action="store_true",
                                help="print the queueing-vs-service latency "
                                     "attribution per pipeline stage and "
                                     "the stage dominating the p99 tail")
    observe_parser.add_argument("--flamegraph", metavar="BASE", default=None,
                                help="write BASE.folded / BASE.speedscope"
                                     ".json (latency attribution) and "
                                     "BASE.cycles.* (simulated cycles per "
                                     "component) flamegraph files")
    observe_parser.add_argument("--slo", action="store_true",
                                help="evaluate an SLO probe per window "
                                     "(default clause: no zero-throughput "
                                     "window allowed)")
    observe_parser.add_argument("--slo-p99-us", type=float, default=None,
                                metavar="US",
                                help="SLO clause: workload p99 latency "
                                     "ceiling, in microseconds")
    observe_parser.add_argument("--slo-floor", type=float, default=None,
                                metavar="OPS",
                                help="SLO clause: workload throughput floor, "
                                     "ops/sec per window")
    observe_parser.add_argument("--slo-downtime-us", type=float, default=None,
                                metavar="US",
                                help="SLO clause: max tolerated consecutive "
                                     "zero-throughput time, in microseconds")
    bench_parser = sub.add_parser(
        "bench", help="time artifact regeneration (serial/parallel/cached)")
    bench_parser.add_argument("artifacts", metavar="ARTIFACT", nargs="*",
                              help="artifacts to time (default: all)")
    bench_parser.add_argument("--quick", action="store_true",
                              help="coarser sweeps, shorter runs")
    bench_parser.add_argument("--jobs", type=_jobs_arg, default="auto",
                              metavar="N",
                              help="worker processes for the parallel pass "
                                   "(default: auto)")
    bench_parser.add_argument("--out", metavar="PATH",
                              default="BENCH_sweep.json",
                              help="output JSON path (default: "
                                   "BENCH_sweep.json)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(ARTIFACTS):
            print(f"{name:10s} {ARTIFACTS[name][0]}")
        return 0
    if args.command == "models":
        return _models_command(args)
    if args.command == "costs":
        from dataclasses import fields
        for f in fields(DEFAULT_COSTS):
            print(f"{f.name:40s} {getattr(DEFAULT_COSTS, f.name)}")
        return 0
    if args.command == "trace":
        _trace_one_request()
        return 0
    if args.command == "verify":
        return _verify_command(args)
    if args.command == "lint":
        from .lint import run_lint
        return run_lint(args)
    if args.command == "faults":
        return _faults_command(args)
    if args.command == "observe":
        return _observe_command(args)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "run":
        if args.artifact != "all" and args.artifact not in ARTIFACTS:
            print(f"unknown artifact: {args.artifact}", file=sys.stderr)
            print(f"valid artifacts: all, {', '.join(sorted(ARTIFACTS))}",
                  file=sys.stderr)
            return 2
        models = None
        if args.models is not None:
            models = _parse_models_filter(args.models)
            if isinstance(models, int):
                return models
            if args.artifact != "all" \
                    and args.artifact not in MODEL_FILTERABLE:
                print(f"{args.artifact} does not take a --models filter",
                      file=sys.stderr)
                print(f"filterable artifacts: "
                      f"{', '.join(sorted(MODEL_FILTERABLE))}",
                      file=sys.stderr)
                return 2
        kw = {"jobs": args.jobs, "cache": _make_cache(args)}
        names = sorted(ARTIFACTS) if args.artifact == "all" \
            else [args.artifact]
        for i, name in enumerate(names):
            _description, runner = ARTIFACTS[name]
            if models is not None and name in MODEL_FILTERABLE:
                text, points = runner(args.quick, models=models, **kw)
            else:
                text, points = runner(args.quick, **kw)
            if args.artifact == "all":
                if i:
                    print()
                print(f"== {name} ==")
            print(text)
            if args.chart:
                if points is None:
                    print("\n(no chartable series for this artifact)")
                else:
                    series = {s: [(float(n), v) for n, v in values]
                              for s, values in series_by_model(points).items()}
                    print()
                    print(ascii_chart(series, title=name))
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
