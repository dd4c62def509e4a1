import numpy as np
import pytest
from hypothesis import settings

import mlestep as ms

# property tests draw a fixed, small set of examples: the suite stays
# deterministic and writes no example database
settings.register_profile("mlestep", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("mlestep")


@pytest.fixture(scope="session")
def example1():
    return ms.example1_model()


@pytest.fixture(scope="session")
def example2():
    return ms.example2_model()


@pytest.fixture(scope="session")
def linear():
    return ms.linear_model()


# Long trajectories are the expensive shared ingredient; simulate once.


@pytest.fixture(scope="session")
def big_traj_example2(example2):
    return ms.simulate(example2, 0.5, 100_000, seed=11)


@pytest.fixture(scope="session")
def big_traj_example1(example1):
    return ms.simulate(example1, 2.5, 100_000, seed=11)


@pytest.fixture(scope="session")
def big_traj_linear(linear):
    return ms.simulate(linear, 0.5, 100_000, seed=42)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20_240_515)
