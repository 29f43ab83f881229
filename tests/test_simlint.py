"""simlint: rule fixtures, suppressions, baseline, reporters, tree check.

Every rule code gets a minimal snippet that fires it and the same snippet
with an inline ``# simlint: disable=<code>`` that silences it.  The
tree-wide test is the real gate: the shipped source must lint clean with
an *empty* baseline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    baseline_keys,
    lint_sources,
    lint_tree,
    load_baseline,
    registered_rules,
    render_json,
    render_text,
    save_baseline,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Rule fixtures.  Each case: {path: source}, plus where the finding anchors.
# ---------------------------------------------------------------------------

CASES = {
    "SIM101": {
        "files": {"repro/sim/clock.py":
                  "import time\n"
                  "STAMP = time.time()\n"},
        "at": ("repro/sim/clock.py", 2),
    },
    "SIM102": {
        "files": {"repro/iomodels/steer.py":
                  "import random\n"
                  "RNG = random.Random(0)\n"},
        "at": ("repro/iomodels/steer.py", 2),
    },
    "SIM103": {
        "files": {"repro/sim/order.py":
                  "def pick(items):\n"
                  "    return sorted(items, key=lambda x: id(x))\n"},
        "at": ("repro/sim/order.py", 2),
    },
    "SIM104": {
        "files": {"repro/experiments/agg.py":
                  "def total(d):\n"
                  "    return sum(d.values())\n"},
        "at": ("repro/experiments/agg.py", 2),
    },
    "SIM105": {
        "files": {"repro/sim/knobs.py":
                  "import os\n"
                  "DEBUG = os.environ.get('REPRO_DEBUG')\n"},
        "at": ("repro/sim/knobs.py", 2),
    },
    "SIM201": {
        "files": {
            "repro/iomodels/costs.py":
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class CostModel:\n"
                "    used_cycles: int = 1\n"
                "    dead_cycles: int = 2\n",
            "repro/hw/consumer.py":
                "def charge(core, costs):\n"
                "    core.execute(costs.used_cycles)\n",
        },
        "at": ("repro/iomodels/costs.py", 5),
    },
    "SIM202": {
        "files": {"repro/iomodels/charge.py":
                  "def work(core):\n"
                  "    core.execute(500, tag='mystery')\n"},
        "at": ("repro/iomodels/charge.py", 2),
    },
    "SIM301": {
        "files": {"repro/sim/cb.py":
                  "def on_event(value, acc=[]):\n"
                  "    acc.append(value)\n"},
        "at": ("repro/sim/cb.py", 1),
    },
    "SIM302": {
        "files": {"repro/cluster/sched.py":
                  "def arm(env, vms):\n"
                  "    for vm in vms:\n"
                  "        env.call_soon(lambda: vm.kick())\n"},
        "at": ("repro/cluster/sched.py", 3),
    },
    "SIM303": {
        "files": {"repro/experiments/poke.py":
                  "def drain(env):\n"
                  "    while env._heap:\n"
                  "        env.step()\n"},
        "at": ("repro/experiments/poke.py", 2),
    },
    "SIM401": {
        "files": {"repro/telemetry/names.py":
                  "def bind(registry):\n"
                  "    return registry.register_counter('Bad-Name')\n"},
        "at": ("repro/telemetry/names.py", 2),
    },
    "SIM402": {
        "files": {"repro/telemetry/dup.py":
                  "def bind(registry):\n"
                  "    registry.register_counter('io.requests')\n"
                  "    registry.register_counter('io.requests')\n"},
        "at": ("repro/telemetry/dup.py", 3),
    },
    "SIM403": {
        "files": {"repro/iomodels/span.py":
                  "def handle(tracer, now):\n"
                  "    tracer.begin(now, 'request.service')\n"},
        "at": ("repro/iomodels/span.py", 2),
    },
    "SIM404": {
        "files": {"repro/faults/tlbind.py":
                  "def bind(env):\n"
                  "    timeline = Timeline(WIDTH)\n"
                  "    env.add_monitor(timeline)\n"},
        "at": ("repro/faults/tlbind.py", 2),
    },
    "SIM405": {
        "files": {"repro/faults/win.py":
                  "def bind(telemetry):\n"
                  "    return telemetry.bind_timeline(width_ns=250000)\n"},
        "at": ("repro/faults/win.py", 2),
    },
    "SIM501": {
        "files": {"repro/experiments/cast.py":
                  "ROWS = ('vrio', 'elvis', 'baseline')\n"},
        "at": ("repro/experiments/cast.py", 1),
    },
}


def _suppress(files, path, line, code):
    """The same sources with an inline disable on the flagged line."""
    out = dict(files)
    lines = out[path].splitlines()
    lines[line - 1] += f"  # simlint: disable={code}"
    out[path] = "\n".join(lines) + "\n"
    return out


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_fires(code):
    case = CASES[code]
    result = lint_sources(case["files"], only=[code])
    assert len(result.findings) == 1, (code, result.findings)
    finding = result.findings[0]
    assert finding.code == code
    assert (finding.path, finding.line) == case["at"]


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_suppressed_inline(code):
    case = CASES[code]
    path, line = case["at"]
    files = _suppress(case["files"], path, line, code)
    result = lint_sources(files, only=[code])
    assert result.findings == []
    assert result.suppressed == 1


def test_every_registered_rule_has_a_fixture():
    assert sorted(registered_rules()) == sorted(CASES)


# ---------------------------------------------------------------------------
# Targeted negatives: the sanctioned idioms must NOT fire.
# ---------------------------------------------------------------------------

def test_cli_exempt_from_wall_clock_and_environ():
    source = ("import os\nimport time\n"
              "T = time.perf_counter()\n"
              "V = os.environ.get('X')\n")
    result = lint_sources({"repro/cli.py": source},
                          only=["SIM101", "SIM105"])
    assert result.findings == []


def test_envvars_module_may_read_environ():
    source = "import os\nV = os.environ.get('X')\n"
    assert lint_sources({"repro/envvars.py": source},
                        only=["SIM105"]).findings == []


def test_rng_registry_may_construct_random():
    source = "import random\nR = random.Random('0/name')\n"
    assert lint_sources({"repro/sim/rng.py": source},
                        only=["SIM102"]).findings == []


def test_identity_derived_stream_name_fires_sim102():
    source = ("def build(rng, port):\n"
              "    return rng.stream(f'openloop-{id(port)}-arrivals')\n")
    result = lint_sources({"repro/workloads/gen.py": source},
                          only=["SIM102"])
    assert len(result.findings) == 1
    assert "substream name" in result.findings[0].message


def test_stable_stream_names_pass_sim102():
    source = ("def build(rng, i):\n"
              "    a = rng.stream(f'openloop-{i}-arrivals')\n"
              "    b = rng.stream('openloop-' + str(i) + '-sizes')\n"
              "    return a, b\n")
    assert lint_sources({"repro/workloads/gen.py": source},
                        only=["SIM102"]).findings == []


def test_sorted_iteration_passes_sim104():
    source = ("def total(d):\n"
              "    return sum(d[k] for k in sorted(d))\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM104"]).findings == []


def test_default_bound_lambda_passes_sim302():
    source = ("def arm(env, vms):\n"
              "    for vm in vms:\n"
              "        env.call_soon(lambda vm=vm: vm.kick())\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM302"]).findings == []


def test_closed_span_passes_sim403():
    source = ("def handle(tracer, now):\n"
              "    tracer.begin(now, 'request.service')\n"
              "    tracer.end(now + 5, 'request.service')\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM403"]).findings == []


def test_flushed_and_handed_off_timelines_pass_sim404():
    source = ("def flushed(env, now):\n"
              "    timeline = Timeline(WIDTH)\n"
              "    env.add_monitor(timeline)\n"
              "    timeline.flush(now)\n"
              "def handoff():\n"
              "    timeline = Timeline(WIDTH)\n"
              "    return timeline\n"
              "def chained(spec, timeline, recorder):\n"
              "    probe = SloProbe(spec, recorder=recorder).attach(timeline)\n"
              "    return probe\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM404"]).findings == []


def test_single_model_per_tuple_and_dicts_pass_sim501():
    # fig11-style configs (one model name per inner tuple) and paper
    # reference dicts are not shadow catalogs; only a literal with two or
    # more model names as *direct* elements is.
    source = ("CONFIGS = [\n"
              "    ('elvis', 1, 4),\n"
              "    ('vrio', 2, 4),\n"
              "]\n"
              "PAPER_TAB03 = {'vrio': 2, 'elvis': 4}\n")
    assert lint_sources({"repro/experiments/cfg.py": source},
                        only=["SIM501"]).findings == []


def test_iomodels_package_may_list_model_names_sim501():
    source = "SHIM = ('vrio', 'elvis', 'baseline')\n"
    assert lint_sources({"repro/iomodels/registry.py": source},
                        only=["SIM501"]).findings == []


def test_list_and_set_literals_fire_sim501():
    source = ("A = ['swpt', 'flexbso']\n"
              "B = {'nvme_pt', 'optimum'}\n")
    result = lint_sources({"repro/experiments/lists.py": source},
                          only=["SIM501"])
    assert len(result.findings) == 2


def test_slospec_and_named_widths_pass_sim405():
    source = ("WIDTH = 500000\n"
              "def spec():\n"
              "    return SloSpec(name='x', window_ns=250000)\n"
              "def named():\n"
              "    return Timeline(WIDTH)\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM405"]).findings == []


def test_cost_model_charge_attribute_passes_sim202():
    source = ("def work(core, costs):\n"
              "    core.execute(costs.ring_op_cycles, tag='ring')\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM202"]).findings == []


def test_parse_error_reported_as_sim000():
    result = lint_sources({"repro/broken.py": "def broken(:\n"})
    assert result.findings == []
    assert len(result.parse_errors) == 1
    assert result.parse_errors[0].code == "SIM000"
    assert not result.clean


# ---------------------------------------------------------------------------
# Baseline round-trip.
# ---------------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    findings = [
        Finding(path="repro/a.py", line=3, col=0, code="SIM104",
                message="sum() over .values()"),
        Finding(path="repro/b.py", line=9, col=4, code="SIM101",
                message="wall-clock read"),
    ]
    path = tmp_path / "baseline.json"
    save_baseline(path, findings)
    assert load_baseline(path) == baseline_keys(findings)
    # Byte-stable: saving the same findings twice writes identical bytes.
    first = path.read_bytes()
    save_baseline(path, list(reversed(findings)))
    assert path.read_bytes() == first


def test_baseline_silences_matching_findings(tmp_path):
    case = CASES["SIM104"]
    result = lint_sources(case["files"], only=["SIM104"])
    path = tmp_path / "baseline.json"
    save_baseline(path, result.findings)
    rerun = lint_sources(case["files"], only=["SIM104"],
                         baseline=load_baseline(path))
    assert rerun.findings == []
    assert rerun.baselined == 1


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


def test_committed_baseline_is_empty():
    committed = Path(__file__).resolve().parent.parent / "LINT_BASELINE.json"
    assert committed.exists()
    assert load_baseline(committed) == set()


# ---------------------------------------------------------------------------
# Reporters.
# ---------------------------------------------------------------------------

def test_json_reporter_schema():
    case = CASES["SIM104"]
    result = lint_sources(case["files"], only=["SIM104"])
    payload = json.loads(render_json(result, root="src"))
    assert payload["version"] == 1
    assert payload["root"] == "src"
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"SIM104": 1}
    assert payload["suppressed"] == 0
    assert payload["baselined"] == 0
    (entry,) = payload["findings"]
    assert sorted(entry) == ["code", "col", "line", "message", "path"]
    assert entry["code"] == "SIM104"
    assert Finding.from_dict(entry) == result.findings[0]


def test_text_reporter_lists_findings_and_summary():
    case = CASES["SIM104"]
    result = lint_sources(case["files"], only=["SIM104"])
    text = render_text(result)
    assert "repro/experiments/agg.py:2" in text
    assert "SIM104: 1" in text


# ---------------------------------------------------------------------------
# The gate: the shipped tree lints clean, in-process and via the CLI.
# ---------------------------------------------------------------------------

def test_tree_lints_clean():
    result = lint_tree()
    assert result.clean, "\n".join(
        f.format() for f in result.all_findings())


def test_cli_lint_json_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        capture_output=True, text=True, env=env,
        cwd=str(SRC_ROOT.parent))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["findings"] == []


# ---------------------------------------------------------------------------
# SIM303 boundaries: the kernel and an object's own state are exempt.
# ---------------------------------------------------------------------------

def test_sim303_allows_the_kernel_its_own_coupling():
    result = lint_sources({
        "repro/sim/fastpath.py":
            "def drain(env):\n"
            "    heap = env._heap\n"
            "    env._seq += 1\n"
            "    return env._ready\n"}, only=["SIM303"])
    assert result.findings == []


def test_sim303_allows_own_private_state():
    # telemetry/flight.py keeps its own self._seq entry counter; owning
    # a field with one of these names is not a scheduler poke.
    result = lint_sources({
        "repro/telemetry/recorder.py":
            "class Recorder:\n"
            "    def __init__(self):\n"
            "        self._seq = 0\n"
            "    def record(self):\n"
            "        self._seq += 1\n"}, only=["SIM303"])
    assert result.findings == []


def test_sim303_flags_every_internal_field():
    src = ("def meddle(env):\n"
           "    env._heap.clear()\n"
           "    env._seq = 0\n"
           "    env._ready.clear()\n")
    result = lint_sources({"repro/cluster/meddle.py": src}, only=["SIM303"])
    assert sorted(f.line for f in result.findings) == [2, 3, 4]


# ---------------------------------------------------------------------------
# mypy (optional dependency; pinned in pyproject's [lint] extra).
# ---------------------------------------------------------------------------

def test_mypy_clean_on_annotated_modules():
    pytest.importorskip("mypy")
    from mypy import api

    out, err, status = api.run(["--config-file",
                                str(SRC_ROOT.parent / "pyproject.toml")])
    assert status == 0, out + err
