"""The verification harness: invariants, scenarios, goldens, determinism.

This package is the reproduction's *test infrastructure as a subsystem*:
instead of each test hand-rolling a testbed and ad-hoc assertions, they
share one registry of canonical scenarios (:mod:`.scenarios`), one
battery of physical-consistency invariants (:mod:`.invariants`), one
golden-file regression format (:mod:`.golden`), bit-reproducibility
checks (:mod:`.determinism`), and a miniature property-based testing
harness (:mod:`.properties`).  ``python -m repro verify`` drives the same
machinery from the command line.
"""

from .determinism import (
    assert_deterministic,
    check_deterministic,
    compare_runs,
    metrics_digest,
)
from .golden import (
    GoldenMismatch,
    REGEN_ENV,
    assert_matches_golden,
    compare_metrics,
    default_golden_dir,
    golden_path,
    load_golden,
    save_golden,
)
from .invariants import (
    EngineMonitor,
    InvariantViolation,
    assert_no_violations,
    check_conservation,
    check_core,
    check_endpoint,
    check_event_stats,
    check_port,
    verify_testbed,
)
from .properties import PropertyFailure, case_rng, replay_case, run_property
from .scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioResult,
    run_scenario,
    scenario_names,
)

__all__ = [
    "EngineMonitor", "InvariantViolation", "assert_no_violations",
    "check_conservation", "check_core", "check_endpoint",
    "check_event_stats", "check_port", "verify_testbed",
    "Scenario", "ScenarioResult", "SCENARIOS", "run_scenario",
    "scenario_names",
    "GoldenMismatch", "REGEN_ENV", "assert_matches_golden",
    "compare_metrics", "default_golden_dir", "golden_path", "load_golden",
    "save_golden",
    "assert_deterministic", "check_deterministic", "compare_runs",
    "metrics_digest",
    "PropertyFailure", "case_rng", "replay_case", "run_property",
]
