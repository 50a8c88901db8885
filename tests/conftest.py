import os
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bubblelab.profiles import escobar_halfspace_optimizer, sphere_area
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
    return Q, Qp, gn_coefficients(Q, Qp, R=20.0)


@pytest.fixture(scope="session")
def gn33():
    Q, Qp = cached_gn_profiles(3, 3.0)
    return Q, Qp, gn_coefficients(Q, Qp, R=20.0)


@pytest.fixture(scope="session")
def channel_fit_n5(halfspace_profiles, constants):
    from bubblelab.energy import channel_fit_second_order
    return channel_fit_second_order(5, halfspace_profiles[5], constants[5], R=100.0)


# edges that split [0, inf) at the GN profile's core scales
_GN_QUAD_EDGES = [0.0, *2.0 ** np.arange(-6, 6), np.inf]


@pytest.fixture(scope="session")
def gn_quad():
    """``gn_quad(Q, name, i)``: scipy's adaptive quadrature of the untruncated
    GN moment |S^(n-1)| int weight r^(n-1+i) dr over [0, inf), weight Q^(p+1),
    Q^2 or Q'^2 for name "pp", "w2" or "tan" (the moment-matrix fields), to
    1e-13 relative. Results are kept per (n, p, name, i): the ground states
    are memoized, so equal (n, p) means the same profile."""
    done = {}

    def moment(Q, name, i):
        n, p = Q.n, Q.p
        if (n, p, name, i) not in done:
            weight = {"pp": lambda r: Q.value(r) ** (p + 1), "w2": lambda r: Q.value(r) ** 2,
                      "tan": lambda r: Q.grad(r) ** 2}[name]
            om = sphere_area(n - 1)
            done[n, p, name, i] = sum(
                quad(lambda r: om * weight(r) * r ** (n - 1 + i), a, b,
                     epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                for a, b in zip(_GN_QUAD_EDGES[:-1], _GN_QUAD_EDGES[1:]))
        return done[n, p, name, i]
    return moment
