"""Shared fixtures for the test suite.

The verification-harness tests (goldens, determinism, invariants) all
consume the same canonical scenario runs; ``scenario_run`` caches one run
per (name, seed) for the whole session so the suite replays each scenario
once instead of once per consumer.
"""

from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.cluster import TestbedSpec
from repro.sim import Environment
from repro.testing import ScenarioResult, run_scenario

# The name starts with "Test", but it's a dataclass, not a test class.
TestbedSpec.__test__ = False

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Parametrizes a test's ``make_env`` with the engine's one scheduler, a
#: ready deque plus a heap, under the id ``heap``.
heap_engine = pytest.mark.parametrize("make_env", [Environment],
                                      ids=["heap"])


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def scenario_run() -> Callable[..., ScenarioResult]:
    """Session-cached scenario runner: ``scenario_run(name, seed=0)``."""
    cache: Dict[Tuple[str, int], ScenarioResult] = {}

    def run(name: str, seed: int = 0) -> ScenarioResult:
        key = (name, seed)
        if key not in cache:
            cache[key] = run_scenario(name, seed=seed)
        return cache[key]

    return run
