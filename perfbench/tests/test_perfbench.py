"""Self-tests of the benchmark: its correctness check, seeds and layer map.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from repro.iomodels.costs import DEFAULT_COSTS
from repro.sim import ms
from spans import Spans

REFS = run.load_references()
DEFAULT_SEED = REFS["default_seed"]
HELD_OUT_SEED = REFS["held_out_seed"]


@pytest.fixture
def short_runs(monkeypatch):
    """Shorten every workload to 1 simulated ms past warm-up."""
    for params in workloads.PARAMS.values():
        monkeypatch.setitem(params, "warmup_ns", ms(1))
        monkeypatch.setitem(params, "run_ns", ms(2))


def _point(workload, seed, refs=None, **kw):
    checker = run.Checker(workload, seed, {} if refs is None else refs)
    return run.run_point(workload, seed, Spans(), checker, **kw)


# -- correctness check ---------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_point_matches_stored_reference(workload, seed):
    point = _point(workload, seed, REFS)
    assert point.error is None
    assert run.Checker(workload, seed, REFS).kind == "stored fingerprint"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_perturbed_cost_model_fails_the_check(workload):
    costs = dataclasses.replace(
        DEFAULT_COSTS, vmhost_ghz=DEFAULT_COSTS.vmhost_ghz * 1.01)
    point = _point(workload, DEFAULT_SEED, REFS, costs=costs)
    assert point.error is not None
    assert point.error.startswith("differs from reference: ")


def test_injected_invariant_violation_fails_the_check(short_runs,
                                                      monkeypatch):
    import repro.testing

    real = repro.testing.verify_testbed

    def corrupting_verify(tb, *args, **kwargs):
        tb.service_cores[0].total_cycles += 1      # breaks the cycle ledger
        return real(tb, *args, **kwargs)

    monkeypatch.setattr(repro.testing, "verify_testbed", corrupting_verify)
    point = _point("rr_scale", DEFAULT_SEED)
    assert point.error is not None
    assert point.error.startswith("verify_testbed: ")
    assert "cycle-ledger" in point.error


def test_checker_names_the_first_differing_statistic():
    expected = {"a": 1, "b": 2.5, "c": 3}
    refs = {"workloads": {"w": {"full": {"5": expected}, "digests": {}}}}
    checker = run.Checker("w", 5, refs)
    assert checker.check(dict(expected)) is None
    error = checker.check(dict(expected, b=2.75, c=4))
    assert error == "differs from reference: b: expected 2.5, got 2.75"


def test_checker_without_reference_demands_repeatability():
    checker = run.Checker("w", 5, {})
    assert checker.check({"a": 1}) is None
    assert checker.check({"a": 1}) is None
    assert "a: expected 1, got 2" in checker.check({"a": 2})


def test_checker_rejects_another_seeds_fingerprint():
    fp = {"a": 1}
    refs = {"workloads": {"w": {"full": {},
                                "digests": {"3": run.fingerprint_digest(fp)}}}}
    error = run.Checker("w", 4, refs).check(fp)
    assert "seed 3" in error and "ignored" in error


# -- seeds -----------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_stored_seeds_have_distinct_fingerprints(workload):
    stored = REFS["workloads"][workload]
    digests = stored["digests"]
    assert {str(DEFAULT_SEED), str(HELD_OUT_SEED)} <= set(stored["full"])
    assert len(set(digests.values())) == len(digests)
    for seed, fp in stored["full"].items():
        assert digests[seed] == run.fingerprint_digest(fp)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_changes_the_simulation(workload, short_runs):
    a = _point(workload, DEFAULT_SEED)
    b = _point(workload, HELD_OUT_SEED)
    assert a.error is None and b.error is None
    assert a.fingerprint != b.fingerprint


# -- layer attribution -------------------------------------------------------

def _repro_modules():
    root = run.SRC
    return sorted(layers.module_of_file(str(path), root)
                  for path in (root / "repro").rglob("*.py"))


def test_every_repro_module_maps_to_exactly_one_layer():
    prefixes = list(layers.LAYERS.values())
    # A module belongs to the layer with its longest matching prefix, so
    # distinct prefixes make the owner unique.
    assert len(prefixes) == len(set(prefixes))
    owners = {}
    for module in _repro_modules():
        owner = layers.layer_of_module(module)
        assert owner in layers.LAYERS, f"{module} belongs to no layer"
        owners.setdefault(owner, []).append(module)
    assert set(owners) == set(layers.LAYERS), \
        f"layers owning no module: {set(layers.LAYERS) - set(owners)}"


def test_non_repro_code_is_other():
    assert layers.layer_of_module("random") == layers.OTHER
    assert layers.layer_of_module("reproduce") == layers.OTHER
    assert layers.module_of_file(run.__file__, run.SRC) is None


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_self_times_tile_the_profiled_total(workload, short_runs):
    profiler = layers.LayerProfiler(run.SRC)
    point = _point(workload, DEFAULT_SEED, profiler=profiler)
    assert point.error is None
    assert set(profiler.self_s) == set(layers.BUCKETS)
    assert sum(profiler.self_s.values()) == pytest.approx(
        profiler.wall_s, rel=1e-9)
    assert all(v >= 0 for v in profiler.self_s.values())
    # The profiler itself holds nearly all of the wall time: what only the
    # benchmark's enclosing frame holds is small.
    assert profiler.self_s[layers.OTHER] < 0.25 * profiler.wall_s
    assert profiler.calls["sim.engine"] > 0
    assert profiler.counts["sim.process_resumes"] > 0


def test_layer_call_counts_repeat_exactly(short_runs):
    first, second = (layers.LayerProfiler(run.SRC) for _ in range(2))
    _point("block_mix", DEFAULT_SEED, profiler=first)
    _point("block_mix", DEFAULT_SEED, profiler=second)
    assert first.calls == second.calls
    assert first.counts == second.counts


def test_traced_metrics_are_the_benchmarks_per_layer_list(short_runs):
    spans = Spans()
    checker = run.Checker("observe_rr", DEFAULT_SEED, {})
    untraced = run.run_point("observe_rr", DEFAULT_SEED, spans, checker)
    profiler = layers.LayerProfiler(run.SRC)
    traced = run.run_point("observe_rr", DEFAULT_SEED, spans, checker,
                           profiler=profiler)
    metrics = run.per_layer([traced], [untraced], spans)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"]
               for m in bench["per_layer"])
    assert metrics["telemetry.attribution_s"]["value"] > 0
    assert metrics["telemetry.calls"]["value"] > 0
    assert metrics["trace.overhead_x"]["value"] > 1


def test_spans_share_a_trace_id_and_nest():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    payload = spans.to_payload()
    outer, inner = payload["spans"]
    assert payload["trace_id"] == spans.trace_id
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] \
        <= outer["end_ns"]
    self_s = spans.self_seconds()
    assert self_s["outer"] + self_s["inner"] == pytest.approx(
        (outer["end_ns"] - outer["start_ns"]) / 1e9)


# -- command line --------------------------------------------------------------

def test_result_line_is_the_contract(tmp_path):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "rr_scale",
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in bench["end_to_end"]}
    assert "failed_frac" in out.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rr_scale",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
