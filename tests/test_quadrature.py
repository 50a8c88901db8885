import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from bubblelab.quadrature import (QuadratureSpec, grid_1d, hankel_factors, panel_edges,
                                  sorted_unique)
from bubblelab.energy import halfspace_moment_matrix, sphere_average
from bubblelab import profiles
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

    @pytest.mark.parametrize("a, b, order, subdiv, extra", [
        (0.0, 3.0, 8, 1, ()), (0.0, 40.0, 20, 1, (20.0, 30.0)),
        (0.0, 40.0, 20, 2, (20.0, 30.0)), (0.0, 1000.0, 28, 4, (500.0, 750.0)),
        (0.0, 41.5, 20, 3, (20.0, 30.0)), (0.5, 7.3, 5, 7, (1.5, 2.0)),
        (-3.0, 5.0, 1, 2, (4.2,)), (0.3, 0.9, 6, 3, ()), (0.3, 8.0, 4, 6, (3.1,))])
    def test_vectorized_grid_matches_panel_loop(self, a, b, order, subdiv, extra):
        # the grid as built one panel at a time, with np.linspace cuts
        from bubblelab.quadrature import _gl_nodes, panel_edges
        edges = panel_edges(a, b, extra=extra)
        cuts = np.unique(np.concatenate([np.linspace(lo, hi, subdiv + 1)
                                         for lo, hi in zip(edges[:-1], edges[1:])]))
        x0, w0 = _gl_nodes(order)
        h = [0.5 * (hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
        x = np.concatenate([lo + hk * (x0 + 1.0) for lo, hk in zip(cuts[:-1], h)])
        w = np.concatenate([hk * w0 for hk in h])
        got = grid_1d(a, b, order, subdiv, extra=extra)
        assert got[0].tobytes() == x.tobytes() and got[1].tobytes() == w.tobytes()

    def test_grids_match_np_unique_bytes(self, gn23):
        rng = np.random.default_rng(5)
        nodes = profiles._GN_GRID_NODES
        tabulation = np.concatenate([np.linspace(0.0, 1.0, nodes // 4 + 1)[:-1],
                                     np.geomspace(1.0, profiles._GN_R_MAX, nodes - nodes // 4)])
        cases = [tabulation, rng.integers(0, 50, 400) / 7.0, rng.normal(size=(7, 9)),
                 np.array([3.0, -0.5, 3.0, 1e-300, 0.0, -1e300, 3.0]), np.array([2.5]),
                 np.empty(0), [0.0, 1.0, 2.0, 4.0, 8.0, 8.0, 2.5, 7.1]]
        for a in cases:
            assert sorted_unique(a).tobytes() == np.unique(a).tobytes()
        assert gn23[0].grid.tobytes() == np.unique(tabulation).tobytes()
        edges = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 40.0, 20.0, 30.0]
        assert panel_edges(0.0, 40.0, extra=(20.0, 30.0)).tobytes() == np.unique(edges).tobytes()

    def test_error_estimate_bounds_truth(self, gn23, gn_quad):
        # the engine's two-resolution estimate, which gn_coefficients reports,
        # bounds the error of each untruncated GN moment at a coarse spec
        Q = gn23[0]
        M = halfspace_moment_matrix(Q, math.inf, QuadratureSpec(order=8, subdiv=1))
        for name in ("pp", "w2", "tan"):
            for i in (0, 2):
                val, err = getattr(M, name)[i, 0], abs(M.delta[name][i, 0])
                truth = gn_quad(Q, name, i)
                assert 0.0 < abs(val - truth) <= 10 * err + 1e-14 * truth, (name, i)


class TestHankelFactors:
    @pytest.mark.parametrize("nu", [Fraction(k, 2) for k in range(7)])
    def test_product_formula(self, nu):
        # a_k(nu) = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2) / (k! 8^k),
        # DLMF 10.17.1, in exact rationals; nu = n/2 - 1 is a half-integer
        got = hankel_factors(float(nu), 20)
        assert got.shape == (19,)
        a = Fraction(1)
        for k, (ratio, running) in enumerate(zip(got, np.cumprod(got)), start=1):
            step = (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k)
            a *= step
            # each ratio rounded once; up to 19 of them in the running product
            assert ratio == float(step)
            assert running == pytest.approx(float(a), rel=4e-15, abs=0.0)


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
