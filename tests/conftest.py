import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from branching_ou.model import ModelParams
from branching_ou.simulator import simulate_farm

# the whole suite is meant to be a pure function of the code, so property
# tests run a fixed corpus
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

SLOW_PARAMS = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
CRIT_PARAMS = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0)
FAST_PARAMS = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0)


@pytest.fixture(scope="session")
def slow_farm():
    """Shared slow-regime farm for the CLT-style acceptance criteria."""
    return simulate_farm(SLOW_PARAMS, (6.0, 8.0, 10.0, 12.0), 10_000, seed=2025)
