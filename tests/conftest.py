import zlib

import numpy as np
import pytest
from hypothesis import settings

from qutritlocc import GenericState, SeedParams, random_seed_params

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def params() -> SeedParams:
    """One well-behaved generic seed shared across the suite."""
    return random_seed_params(np.random.default_rng(2024))


@pytest.fixture(scope="session")
def seed_state(params) -> GenericState:
    return GenericState(params, (np.eye(3), np.eye(3), np.eye(3)))


@pytest.fixture
def rng(request) -> np.random.Generator:
    # Seeded from the test's nodeid so each test gets its own stable stream
    # (hash() is salted per process and would not reproduce).
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
