"""Tests for the whole-program lint layer (SIM6xx) and its satellites.

The seeded-bug corpus lives in ``tests/lint_fixtures/<rule>/``: each
directory is a miniature project whose relative paths become the
virtual lint paths.  Every SIM6xx rule must fire on its seeded bug and
stay quiet on the sanctioned idiom sitting next to it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lint import (baseline_keys, build_project,
                        build_project_from_sources, changed_paths,
                        expand_suppressions, lint_sources, lint_tree,
                        load_baseline, parse_suppressions,
                        register_project_rule, register_rule,
                        registered_project_rules, render_rule_list,
                        run_project_rules, save_baseline)
from repro.lint.findings import Finding
from repro.lint.framework import default_lint_root
from repro.lint.project import ProjectRule
from repro.lint.symbols import extract_module

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def load_fixture(name: str) -> dict:
    root = FIXTURES / name
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*.py"))}


def run_fixture(name: str, code: str):
    project = build_project_from_sources(load_fixture(name))
    return run_project_rules(project, only=[code])


# ---------------------------------------------------------------------------
# SIM601 — RNG provenance


def test_sim601_fires_on_laundered_raw_rng():
    result = run_fixture("sim601", "SIM601")
    assert result.findings, "seeded raw-RNG flow must be flagged"
    assert all(f.code == "SIM601" for f in result.findings)
    assert any(f.path == "app/user.py" for f in result.findings)
    # the sanctioned RngRegistry.stream() path stays quiet
    assert all("export" not in f.message for f in result.findings)


def test_sim601_quiet_in_rng_home_and_on_streams():
    result = run_fixture("sim601", "SIM601")
    assert all(f.path != "repro/sim/rng.py" for f in result.findings), \
        "raw random is sanctioned inside repro/sim/rng.py"
    # exactly the one seeded sink, not the two stream-based ones
    assert len(result.findings) == 1


# ---------------------------------------------------------------------------
# SIM602 — cycle-ledger flow


def test_sim602_flags_dead_field_and_orphan_charge():
    result = run_fixture("sim602", "SIM602")
    messages = [f.message for f in result.findings]
    assert any("dead_knob_cycles" in m for m in messages)
    assert any("_orphan_path" in m for m in messages)
    assert len(result.findings) == 2


def test_sim602_credits_caller_charged_helpers_and_delays():
    result = run_fixture("sim602", "SIM602")
    messages = " ".join(f.message for f in result.findings)
    assert "helper_cycles" not in messages, \
        "field charged by the reader's caller is live"
    assert "window_delay_ns" not in messages, \
        "field consumed as a simulated-time delay is live"
    assert "used_cycles" not in messages


def test_sim602_dead_field_anchored_at_definition():
    result = run_fixture("sim602", "SIM602")
    dead = [f for f in result.findings if "dead_knob_cycles" in f.message]
    assert dead and dead[0].path == "repro/iomodels/costs.py"
    assert dead[0].line > 1


# ---------------------------------------------------------------------------
# SIM603 — event-callback escape


def test_sim603_fires_on_lambda_and_nested_def():
    result = run_fixture("sim603", "SIM603")
    lines = {f.line for f in result.findings}
    assert len(result.findings) == 2
    assert all("reassigned" in f.message for f in result.findings)


def test_sim603_quiet_on_default_binding_idiom():
    result = run_fixture("sim603", "SIM603")
    source = (FIXTURES / "sim603/app/callbacks.py").read_text()
    ok_line = next(i for i, text in enumerate(source.splitlines(), 1)
                   if "lambda t=target" in text)
    assert all(f.line != ok_line for f in result.findings)


# ---------------------------------------------------------------------------
# SIM604 — telemetry reachability


def test_sim604_flags_orphan_hook_only():
    result = run_fixture("sim604", "SIM604")
    assert len(result.findings) == 1
    assert "OrphanModel" in result.findings[0].message


def test_sim604_follows_higher_order_builder_indirection():
    result = run_fixture("sim604", "SIM604")
    assert all("LiveModel" not in f.message for f in result.findings), \
        "factory passed by name through consolidated_per_host is reachable"


# ---------------------------------------------------------------------------
# Whole-tree invariants


def test_real_tree_project_clean():
    result = lint_tree(project=True, use_cache=False)
    assert result.clean, "\n".join(
        f.format() for f in result.all_findings())


def test_project_rule_registry_is_sim6xx():
    registry = registered_project_rules()
    assert sorted(registry) == ["SIM601", "SIM602", "SIM603", "SIM604"]
    assert all(code in render_rule_list() for code in registry)


def test_every_project_rule_has_a_fixture_corpus():
    for code in registered_project_rules():
        fixture_dir = FIXTURES / code.lower()
        assert fixture_dir.is_dir(), f"missing fixture corpus for {code}"
        result = run_fixture(code.lower(), code)
        assert result.findings, f"{code} does not fire on its corpus"


# ---------------------------------------------------------------------------
# Incremental cache


# The symbol cache must make a warm whole-tree build at least this many
# times faster than a cold one (parse + summary extraction per file).
LINT_WARMUP_TARGET = 5.0


def test_cache_warm_run_equivalent_and_all_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # A warm build takes ~0.1 s, so one stray scheduling hiccup on a
    # shared host can halve the ratio: time three cold/warm rounds, each
    # on a fresh cache, and compare the fastest of each.
    cold_times, warm_times = [], []
    for round_ in range(3):
        cache_dir = tmp_path / f"lint_symbols{round_}"
        t0 = time.perf_counter()
        cold = build_project(cache_dir=cache_dir)
        cold_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = build_project(cache_dir=cache_dir)
        warm_times.append(time.perf_counter() - t0)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold.summaries)
        assert warm.cache_hits == len(warm.summaries)
        assert warm.cache_misses == 0
    cold_result = run_project_rules(cold)
    warm_result = run_project_rules(warm)
    assert cold_result.findings == warm_result.findings
    assert sorted(cold.summaries) == sorted(warm.summaries)
    cold_s, warm_s = min(cold_times), min(warm_times)
    assert cold_s >= LINT_WARMUP_TARGET * warm_s, (
        f"warm cache only {cold_s / warm_s:.1f}x faster than cold over "
        f"{len(warm.summaries)} files (target {LINT_WARMUP_TARGET:.0f}x)")


def test_cache_survives_corrupt_entries(tmp_path):
    cache_dir = tmp_path / "lint_symbols"
    build_project(cache_dir=cache_dir)
    for entry in list(cache_dir.glob("*.pkl"))[:3]:
        entry.write_bytes(b"not a pickle")
    again = build_project(cache_dir=cache_dir)
    assert again.cache_misses == 3
    assert len(again.summaries) == len(list(again.summaries))


def test_parallel_jobs_matches_serial():
    serial = build_project(use_cache=False)
    parallel = build_project(use_cache=False, jobs=2)
    assert sorted(serial.summaries) == sorted(parallel.summaries)
    assert run_project_rules(serial).findings == \
        run_project_rules(parallel).findings


# ---------------------------------------------------------------------------
# Satellite: statement-span suppressions


def test_suppression_covers_continuation_lines():
    # Finding anchored on line 3 (the tuple contents), suppression
    # comment on line 2 (the statement's first line): pre-fix this
    # suppression silently failed.
    source = (
        "MODELS = (  # simlint: disable=SIM501\n"
        '    "elvis",\n'
        '    "vrio",\n'
        '    "baseline",\n'
        ")\n"
    )
    result = lint_sources({"repro/experiments/demo.py": source},
                          only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 1


def test_suppression_on_last_line_covers_whole_statement():
    source = (
        "MODELS = [\n"
        '    ("elvis", "vrio", "baseline")\n'
        "    ]  # simlint: disable=SIM501\n"
    )
    result = lint_sources({"repro/experiments/demo.py": source},
                          only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 1


def test_suppression_on_compound_header_does_not_blanket_body():
    import ast
    source = (
        "def f():  # simlint: disable=SIM101\n"
        "    import time\n"
        "    return time.time()\n"
    )
    tree = ast.parse(source)
    expanded = expand_suppressions(tree, parse_suppressions(source))
    assert 1 in expanded
    assert 3 not in expanded, \
        "a suppression on the def line must not silence the body"


def test_fig16_suppression_sites_still_covered():
    # Regression anchor: the two multi-line comprehensions in the
    # consolidation experiments carry inline SIM501 suppressions; the
    # span expansion must keep them effective (tree stays clean).
    path = "repro/experiments/consolidation_experiments.py"
    source = (default_lint_root() / path).read_text(encoding="utf-8")
    assert "simlint: disable=SIM501" in source
    result = lint_sources({path: source}, only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 2


# ---------------------------------------------------------------------------
# Satellite: framework edge cases


def test_parse_error_recovery_match_syntax():
    # ``match`` parses on 3.10+ (our runtime) but is a syntax error on
    # the 3.9 floor the project targets; either way the framework must
    # recover and keep linting the other files.
    match_source = (
        "def dispatch(kind):\n"
        "    match kind:\n"
        "        case 'a':\n"
        "            return 1\n"
        "        case _:\n"
        "            return 2\n"
    )
    files = {
        "repro/new_syntax.py": match_source,
        "repro/broken.py": "def f(:\n",
        "repro/fine.py": "import time\nt = time.time()\n",
    }
    result = lint_sources(files, only=["SIM101"])
    bad_paths = {f.path for f in result.parse_errors}
    assert "repro/broken.py" in bad_paths
    if sys.version_info >= (3, 10):
        assert "repro/new_syntax.py" not in bad_paths
    else:  # pragma: no cover - 3.9 interpreter
        assert "repro/new_syntax.py" in bad_paths
    # the parse failures must not stop the healthy file being linted
    assert any(f.path == "repro/fine.py" for f in result.findings)

    summary = extract_module("repro/broken.py", "def f(:\n")
    assert summary.parse_error is not None
    project = build_project_from_sources(files)
    project_result = run_project_rules(project)
    assert any(f.code == "SIM000" for f in project_result.parse_errors)


def test_baseline_keys_stable_across_path_separators(tmp_path):
    finding = Finding(path="repro\\sim\\engine.py", line=3, col=0,
                      code="SIM101", message="wall-clock read")
    baseline_file = tmp_path / "base.json"
    save_baseline(baseline_file, [finding])
    keys = load_baseline(baseline_file)
    assert ("repro/sim/engine.py", "SIM101", "wall-clock read") in keys
    assert keys == baseline_keys([finding])


def test_duplicate_rule_registration_rejected():
    from repro.lint.framework import Rule

    class Dupe(Rule):
        code = "SIM101"
        name = "dupe"
        rationale = "duplicate"

    with pytest.raises(ValueError, match="duplicate rule code"):
        register_rule(Dupe)

    class ProjectDupe(ProjectRule):
        code = "SIM601"
        name = "dupe"
        rationale = "duplicate"

    with pytest.raises(ValueError, match="duplicate rule code"):
        register_project_rule(ProjectDupe)


# ---------------------------------------------------------------------------
# Satellite: --changed


def test_changed_paths_falls_back_outside_git(tmp_path):
    (tmp_path / "repro").mkdir()
    assert changed_paths(root=tmp_path) is None


def test_changed_paths_in_this_checkout():
    changed = changed_paths()
    # On a pristine main this is an empty list; on a working branch it
    # is the touched files — either way it is a real answer, not None,
    # and every entry is a python file inside the package.
    if changed is None:
        pytest.skip("not running inside a git checkout")
    assert all(p.suffix == ".py" for p in changed)


def test_changed_subset_skips_tree_scoped_rules():
    # Linting only the declaration file must not flag fields whose uses
    # live in unlinted files: --changed passes skip_tree_scoped=True.
    costs = str(REPO_ROOT / "src" / "repro" / "iomodels" / "costs.py")
    full = lint_tree(paths=[Path(costs)], use_baseline=False)
    assert any(f.code == "SIM201" for f in full.findings), \
        "subset lint should normally expose the partial-view SIM201s"
    restricted = lint_tree(paths=[Path(costs)], use_baseline=False,
                           skip_tree_scoped=True)
    assert not any(f.code == "SIM201" for f in restricted.findings)


def test_explicit_only_overrides_tree_scoped_skip():
    result = lint_sources(
        {"repro/iomodels/costs.py":
             "from dataclasses import dataclass\n"
             "@dataclass\n"
             "class CostModel:\n"
             "    orphan_cycles: int = 1\n"},
        only=["SIM201"], skip_tree_scoped=True)
    assert [f.code for f in result.findings] == ["SIM201"]


def test_cli_changed_exits_clean_on_this_checkout():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--changed"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={**__import__("os").environ,
             "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_project_json_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--project", "--json",
         "--no-cache"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={**__import__("os").environ,
             "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["files_checked"] >= 100
