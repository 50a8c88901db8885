import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from bubblelab.quadrature import (QuadratureSpec, grid_1d, integrate_1d,
                                  integrate_radial_tail, integrate_halfplane_polar,
                                  integrate_ray)
from bubblelab.energy import sphere_average
from bubblelab.profiles import escobar_halfspace_optimizer, sphere_area
from bubblelab.moments import weighted_moments


class TestPanelledGL:
    def test_polynomial_exactness(self):
        x, w = grid_1d(0.0, 3.0, order=8, subdiv=1)
        for k in range(10):
            assert np.sum(w * x ** k) == pytest.approx(3.0 ** (k + 1) / (k + 1), rel=1e-13)

    def test_extra_edges_inserted(self):
        from bubblelab.quadrature import panel_edges
        edges = panel_edges(0.0, 8.0, extra=(2.5, 7.1))
        assert 2.5 in edges and 7.1 in edges

    def test_error_estimate_bounds_truth(self):
        spec = QuadratureSpec(order=6, subdiv=1)
        val, err = integrate_1d(lambda x: np.sin(3 * x), 2.0, spec, with_error=True)
        truth = (1 - math.cos(6.0)) / 3.0
        assert abs(val - truth) <= 10 * err + 1e-14


class TestTailMaps:
    @pytest.mark.parametrize("s", [2.0, 3.0, 5.0])
    def test_pure_power_tail(self, s):
        got = integrate_radial_tail(lambda x: x ** (-s), 2.0, s)
        assert got == pytest.approx(2.0 ** (1 - s) / (s - 1), rel=1e-12)

    def test_ray_with_algebraic_tail(self):
        # int_0^inf x^2/(1+x^2)^3 dx = (1/2) B(3/2, 3/2)
        got = integrate_ray(lambda x: x ** 2 / (1 + x ** 2) ** 3, decay=4.0)
        assert got == pytest.approx(0.5 * beta_fn(1.5, 1.5), rel=1e-12)

    def test_halfplane_polar_gaussian(self):
        got = integrate_halfplane_polar(
            lambda r, t: np.exp(-(r ** 2 + t ** 2)), decay=8.0)
        assert got == pytest.approx(math.pi / 4.0, rel=1e-11)

    def test_divergent_tail_rejected(self):
        with pytest.raises(ValueError):
            integrate_radial_tail(lambda x: 1.0 / x, 1.0, 1.0)


class TestSphereMoments:
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 7), a=st.lists(st.floats(-2, 2), min_size=7, max_size=7))
    def test_quartic_diagonal_formula(self, m, a):
        # <(sum a_i w_i^2)^2> = (2 sum a^2 + (sum a)^2) / (m (m+2))
        a = np.array(a[:m])
        T = np.einsum("ij,kl->ikjl", np.diag(a), np.diag(a))
        # reorder to plain 4-slot tensor T_{i k j l} w_i w_k w_j w_l
        got = sphere_average(np.einsum("ikjl->ijkl", T), m)
        expect = (2 * np.sum(a ** 2) + np.sum(a) ** 2) / (m * (m + 2))
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)


class TestBetaFunctionOracle:
    """Closed-form moments of the half-space optimizer, derived by hand from
    iterated Beta integrals; computed here only as an independent oracle."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_moment_limits_match_closed_forms(self, n):
        U = escobar_halfspace_optimizer(n)
        tab = weighted_moments(U, 20.0)
        exact = {"J": 1.0, "Theta": 2.0 / (n - 3), "g1": 1.0 / (n - 3),
                 "g1tan": 0.5 / (n - 3)}
        if n >= 5:
            exact["g2"] = 2.0 / ((n - 3) * (n - 4))
            exact["g2tan"] = exact["g2"] / 2.0
        for name, value in exact.items():
            assert tab.limit(name) == pytest.approx(value, rel=1e-14, abs=0), name

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_amplitude_closed_form(self, n):
        # unit Dirichlet norm forces c^2 = 2 / ((n-2) B((n-1)/2,(n-1)/2) w_{n-2})
        U = escobar_halfspace_optimizer(n)
        om = sphere_area(n - 2)
        c2 = 2.0 / ((n - 2) * beta_fn((n - 1) / 2.0, (n - 1) / 2.0) * om)
        assert U.amplitude ** 2 == pytest.approx(c2, rel=1e-10)

    @pytest.mark.parametrize("n", [5, 6])
    def test_trace_q_mass_closed_form(self, n):
        # T = c^q w_{n-2} (1/2) B((n-1)/2, (n-1)/2)
        U = escobar_halfspace_optimizer(n)
        tab = weighted_moments(U, 20.0)
        q = 2.0 * (n - 1) / (n - 2)
        om = sphere_area(n - 2)
        expect = U.amplitude ** q * om * 0.5 * beta_fn((n - 1) / 2.0, (n - 1) / 2.0)
        assert tab.limit("Tq") == pytest.approx(expect, rel=1e-10)
