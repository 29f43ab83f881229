"""Real-artifact benchmark of the vRIO simulator.

    python3 perfbench/run.py --workload rr_scale --seed 0 --seconds 40 --trace 0

Runs simulation points of one workload (see ``workloads.py``) one after
another, in this process, until ``--seconds`` have passed, and checks every
point: the invariant audit must be clean and the fingerprint of simulated
statistics must equal the stored reference for the workload and seed.

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it alternates untraced points with points
run under the layer profiler, reports self time and calls per layer, and
writes the spans and layer tables to ``perfbench/out/``.

Every line but the last is for people: a run manifest and each metric
with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the ``repro`` package in ``src/`` next to this
directory; without it the benchmark exits with a non-zero code before it
prints a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import REFERENCE_S, calibration_seconds
from layers import BUCKETS, COUNTED, LayerProfiler
from spans import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"

# Each point is set up this many times and run once: set-up takes a few
# milliseconds, so one sample per point would be mostly noise.
SETUPS_PER_POINT = 5


def import_program() -> None:
    """Put ``src/`` first on the path and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} "
                         "is missing")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def fingerprint_digest(fp: Dict[str, float]) -> str:
    return hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def first_difference(expected: Dict[str, float],
                     actual: Dict[str, float]) -> str:
    """The first statistic, in sorted order, on which two fingerprints
    differ."""
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            return (f"{key}: expected {expected.get(key)!r}, "
                    f"got {actual.get(key)!r}")
    return "no difference"


class Checker:
    """Compares each point's fingerprint with the stored reference.

    A seed with a full stored fingerprint reports the first differing
    statistic; a seed with a stored digest only reports that the digest
    differs.  A seed with no reference is checked for repeatability within
    the run instead.  A fingerprint equal to another seed's reference
    means the seed was ignored, which fails too.
    """

    def __init__(self, workload: str, seed: int, references: dict) -> None:
        refs = references.get("workloads", {}).get(workload, {})
        self.full: Optional[dict] = refs.get("full", {}).get(str(seed))
        digests = refs.get("digests", {})
        self.digest: Optional[str] = digests.get(str(seed))
        if self.full is not None:
            self.digest = fingerprint_digest(self.full)
        self.other_seeds = {d: s for s, d in digests.items()
                            if s != str(seed)}
        self.first: Optional[Dict[str, float]] = None

    @property
    def kind(self) -> str:
        if self.full is not None:
            return "stored fingerprint"
        if self.digest is not None:
            return "stored digest"
        return "none stored; checking repeatability within the run"

    def check(self, fp: Dict[str, float]) -> Optional[str]:
        digest = fingerprint_digest(fp)
        if digest in self.other_seeds:
            return (f"fingerprint equals the reference of seed "
                    f"{self.other_seeds[digest]}: the seed was ignored")
        if self.full is not None:
            if fp != self.full:
                return "differs from reference: " + first_difference(
                    self.full, fp)
        elif self.digest is not None:
            if digest != self.digest:
                return (f"fingerprint digest {digest[:16]} differs from the "
                        f"stored {self.digest[:16]}")
        elif self.first is None:
            self.first = fp
        elif fp != self.first:
            return "differs from this run's first point: " + \
                first_difference(self.first, fp)
        return None


@dataclass
class Point:
    """One point's CPU times, as measured, and what its check found."""

    setup_s: List[float] = field(default_factory=list)
    run_s: float = 0.0
    env_run_s: float = 0.0
    calibration_s: float = REFERENCE_S
    sim_ns: int = 0
    fingerprint: Optional[Dict[str, float]] = None
    error: Optional[str] = None
    profile: Optional[LayerProfiler] = None
    spans: range = range(0)             # indices of the point's span records

    @property
    def scale(self) -> float:
        """Factor from this point's CPU seconds to reference-host seconds."""
        return REFERENCE_S / self.calibration_s

    def seconds(self, spans, *names: str) -> float:
        return sum(spans.seconds(n, self.spans.start, self.spans.stop)
                   for n in names)


def run_point(workload: str, seed: int, spans, checker: Checker,
              costs=None, profiler=None) -> Point:
    """Set up, run and check one point, then time the calibration loop;
    a raised error fails the point."""
    from workloads import WORKLOADS
    from repro.testing import verify_testbed

    point = Point(profile=profiler)
    since = len(spans.records)
    gc.collect()
    try:
        with spans.span("point"):
            with (profiler if profiler is not None else nullcontext()):
                for _ in range(SETUPS_PER_POINT):
                    with spans.span("setup"):
                        prepared = WORKLOADS[workload](seed, spans, costs)
                with spans.span("run"):
                    fp = prepared.run(spans)
                with spans.span("check"):
                    violations = []
                    for prefix, tb in prepared.testbeds:
                        with spans.span("verify_testbed"):
                            violations += [f"{prefix}{v}"
                                           for v in verify_testbed(tb)]
    except Exception:
        point.error = "raised:\n" + traceback.format_exc()
        return point
    point.calibration_s = calibration_seconds()
    point.spans = range(since, len(spans.records))
    point.setup_s = spans.durations("setup", since)
    point.run_s = point.seconds(spans, "run")
    point.env_run_s = point.seconds(spans, "env.run")
    point.sim_ns = prepared.sim_ns
    point.fingerprint = fp
    if violations:
        point.error = (f"verify_testbed: {len(violations)} violation(s), "
                       f"first: {violations[0]}")
    else:
        point.error = checker.check(fp)
    return point


def manifest(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What produced this result: inputs, cost model, code and host."""
    from repro.experiments.executor import code_version, cost_fingerprint
    from repro.sim import default_scheduler
    from workloads import PARAMS

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": PARAMS[workload],
        "setups_per_point": SETUPS_PER_POINT,
        "cost_fingerprint": cost_fingerprint(None),
        "code_version": code_version(),
        "scheduler": default_scheduler(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(points: List[Point]) -> Dict[str, dict]:
    """Medians over the run's points, in reference-host seconds."""
    ok = [p for p in points if p.error is None] or points
    return {
        "setup_s": {"value": _median([s * p.scale for p in ok
                                      for s in p.setup_s]),
                    "unit": "s"},
        "run_s": {"value": _median([p.run_s * p.scale for p in ok]),
                  "unit": "s"},
        "sim_us_per_s": {
            "value": _median([p.sim_ns / 1e3 / (p.env_run_s * p.scale)
                              for p in ok if p.env_run_s > 0]),
            "unit": "us/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "unit": "MB"},
    }


def per_layer(traced: List[Point], untraced: List[Point],
              spans: Spans) -> Dict[str, dict]:
    profiles = [p.profile for p in traced]
    out: Dict[str, dict] = {}
    for bucket in BUCKETS:
        out[f"{bucket}.self_s"] = {
            "value": _median([pr.self_s[bucket] for pr in profiles]),
            "unit": "s"}
        out[f"{bucket}.calls"] = {"value": profiles[0].calls[bucket],
                                  "unit": "count"}
    for name in COUNTED:
        out[name] = {"value": profiles[0].counts[name], "unit": "count"}

    def span_median(*names: str) -> float:
        return _median([p.seconds(spans, *names) for p in traced])

    out["cluster.build_s"] = {
        "value": span_median("build_testbed") / SETUPS_PER_POINT,
        "unit": "s"}
    out["telemetry.attribution_s"] = {"value": span_median("attribution"),
                                      "unit": "s"}
    out["telemetry.export_s"] = {
        "value": span_median("export.report", "export.chrome_trace",
                             "export.timeline"),
        "unit": "s"}
    out["trace.profiled_s"] = {
        "value": _median([pr.wall_s for pr in profiles]), "unit": "s"}
    out["trace.overhead_x"] = {
        "value": (_median([p.run_s * p.scale for p in traced])
                  / _median([p.run_s * p.scale for p in untraced])),
        "unit": "x"}
    return out


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Real-artifact benchmark of the vRIO simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; valid "
              f"workloads: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    info = manifest(args.workload, args.seed, args.seconds, trace)
    print("manifest " + json.dumps(info, sort_keys=True))
    checker = Checker(args.workload, args.seed, load_references())
    print(f"reference: {checker.kind}")

    spans = Spans()
    untraced: List[Point] = []
    traced: List[Point] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        want_traced = trace and len(traced) < len(untraced)
        profiler = LayerProfiler(SRC) if want_traced else None
        point = run_point(args.workload, args.seed, spans, checker,
                          profiler=profiler)
        (traced if want_traced else untraced).append(point)
        if point.error:
            print(f"point {len(untraced) + len(traced)} failed: "
                  f"{point.error}")
        if time.perf_counter() >= deadline and (traced or not trace):
            break

    points = untraced + traced
    failed = sum(1 for p in points if p.error)
    good_traced = [p for p in traced if p.error is None]
    if trace:
        if good_traced:
            metrics = per_layer(good_traced, untraced, spans)
            first = good_traced[0].profile
            for p in good_traced[1:]:
                if (p.profile.calls, p.profile.counts) != (first.calls,
                                                           first.counts):
                    p.error = "layer call counts differ between traced points"
                    failed += 1
                    print(f"traced point failed: {p.error}")
        else:
            metrics = {}
        write_trace(args, info, spans, good_traced)
    else:
        metrics = end_to_end(untraced)
    print(f"points: {len(untraced)} untraced, {len(traced)} traced; "
          f"calibration loop median "
          f"{_median([p.calibration_s for p in points]):.4f} s "
          f"(reference {REFERENCE_S} s); median raw CPU run_s "
          f"{_median([p.run_s for p in untraced]):.4f} s")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    failed_frac = failed / len(points)
    print(f"{'failed_frac':28s} {failed_frac:14.6g} 1  "
          f"({failed} of {len(points)} points)")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(points), "failed": failed,
                      "metrics": metrics}))
    return 0


def write_trace(args, info: dict, spans, traced: List[Point]) -> None:
    """Write the run's spans and per-point layer tables out."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    payload = {
        "manifest": info,
        **spans.to_payload(),
        "span_self_s": spans.self_seconds(),
        "layers": [{"wall_s": p.profile.wall_s,
                    "self_s": p.profile.self_s,
                    "calls": p.profile.calls,
                    "counts": p.profile.counts} for p in traced],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
