import os
from pathlib import Path

import numpy as np
import pytest

from bubblelab.profiles import escobar_halfspace_optimizer
from bubblelab.moments import weighted_moments, escobar_constants, gn_coefficients
from bubblelab.fixtures import cached_gn_profiles

# CLI runs in subprocesses import the same source tree as the tests
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def halfspace_profiles():
    return {n: escobar_halfspace_optimizer(n) for n in (4, 5, 6, 7, 8)}


@pytest.fixture(scope="session")
def moment_tables(halfspace_profiles):
    return {n: weighted_moments(halfspace_profiles[n], 40.0)
            for n in (4, 5, 6, 7, 8)}


@pytest.fixture(scope="session")
def constants(moment_tables):
    return {n: escobar_constants(n, moment_tables[n]) for n in (4, 5, 6, 7, 8)}


@pytest.fixture(scope="session")
def gn23():
    Q, Qp = cached_gn_profiles(2, 3.0)
    return Q, Qp, gn_coefficients(2, 3.0, Q, Qp, R=20.0)


@pytest.fixture(scope="session")
def gn33():
    Q, Qp = cached_gn_profiles(3, 3.0)
    return Q, Qp, gn_coefficients(3, 3.0, Q, Qp, R=20.0)


@pytest.fixture(scope="session")
def channel_fit_n5(halfspace_profiles, constants):
    from bubblelab.energy import channel_fit_second_order
    return channel_fit_second_order(5, halfspace_profiles[5], constants[5], R=100.0)
