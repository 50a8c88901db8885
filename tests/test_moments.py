import math
import warnings
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblelab import energy, moments
from bubblelab.moments import (
    MomentTable, weighted_moments, verify_harmonic_identities,
    second_moment_identity, escobar_constants, gn_coefficients, fde_exponents,
    kappa_int_from_moments, LogDivergentMoment, ConstantsMismatch,
)
from bubblelab.profiles import sphere_area, gn_exponents
from bubblelab.quadrature import QuadratureSpec


class TestWeightedMoments:
    def test_entries_nonnegative_and_ordered(self, moment_tables):
        for n, tab in moment_tables.items():
            for name, v in tab.values.items():
                assert v >= 0.0
            assert tab.truncated("g1tan") <= tab.truncated("g1")
            if n >= 5:
                assert tab.truncated("g2tan") <= tab.truncated("g2")

    def test_trace_moments_monotone_in_R(self, halfspace_profiles):
        U = halfspace_profiles[5]
        tabs = [weighted_moments(U, R) for R in (10.0, 20.0, 40.0)]
        for name in ("Theta", "Tq"):
            vals = [t.truncated(name) for t in tabs]
            assert vals[0] < vals[1] < vals[2] <= tabs[0].limit(name) + 1e-12

    def test_limits_computed_once_per_profile_and_spec(self, monkeypatch, halfspace_profiles):
        monkeypatch.setattr(energy, "_memo", OrderedDict())
        calls = []
        limit_moments = moments._limit_moments
        monkeypatch.setattr(moments, "_limit_moments",
                            lambda *args: calls.append(args) or limit_moments(*args))
        U = halfspace_profiles[5]
        t1 = weighted_moments(U, 20.0)
        t1.limits["J"] = -1.0                      # each table owns its dicts
        t2 = weighted_moments(U, 30.0)
        assert len(calls) == 1 and t2.limits["J"] > 0.0
        assert t2.limit_errors == weighted_moments(U, 20.0).limit_errors
        weighted_moments(U, 20.0, QuadratureSpec(order=24))
        assert len(calls) == 2

    def test_all_entries_converge_to_limits(self, halfspace_profiles):
        U = halfspace_profiles[5]
        t1, t2 = weighted_moments(U, 20.0), weighted_moments(U, 40.0)
        for name in t1.values:
            d1 = abs(t1.truncated(name) - t1.limit(name))
            d2 = abs(t2.truncated(name) - t2.limit(name))
            assert d2 < d1

    def test_two_radius_tail_bound(self, halfspace_profiles):
        # |Theta(100) - Theta(50)| is controlled by the |y'|^(2(2-n)) decay
        U = halfspace_profiles[5]
        n = 5
        t50 = weighted_moments(U, 50.0)
        t100 = weighted_moments(U, 100.0)
        om = sphere_area(n - 2)
        bound = om * U.amplitude ** 2 * 50.0 ** (3 - n) / (n - 3)
        assert abs(t100.truncated("Theta") - t50.truncated("Theta")) <= bound

    def test_first_moment_ratio_approaches_half(self, halfspace_profiles):
        tab = weighted_moments(halfspace_profiles[5], 200.0)
        ratio = tab.truncated("g1tan") / tab.truncated("g1")
        assert abs(ratio - 0.5) < 1e-4

    def test_log_divergent_dimension(self, moment_tables):
        with pytest.raises(LogDivergentMoment):
            moment_tables[4].truncated("g2")
        with pytest.raises(LogDivergentMoment):
            moment_tables[4].limit("g2tan")


class TestIdentities:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_harmonic_identities(self, moment_tables, n):
        rep = verify_harmonic_identities(moment_tables[n], tol=1e-5)
        assert rep.ok, rep.residuals

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_second_moment_split(self, moment_tables, n):
        rep = second_moment_identity(moment_tables[n], tol=1e-5)
        assert rep.ok, rep.residuals

    def test_synthetic_violation_detected(self, moment_tables):
        tab = moment_tables[5]
        bad = MomentTable(n=5, R=tab.R, values=dict(tab.values),
                          errors=dict(tab.errors), limits=dict(tab.limits),
                          limit_errors=dict(tab.limit_errors))
        bad.limits["g1"] = bad.limits["Theta"]  # g1 = Theta instead of Theta/2
        rep = verify_harmonic_identities(bad)
        assert not rep.ok
        assert rep.residuals["g1_minus_half_theta"] == pytest.approx(
            bad.limits["Theta"] / 2.0, rel=1e-9)

    def test_synthetic_second_moment_violation(self, moment_tables):
        tab = moment_tables[5]
        bad = MomentTable(n=5, R=tab.R, values=dict(tab.values),
                          errors=dict(tab.errors), limits=dict(tab.limits),
                          limit_errors=dict(tab.limit_errors))
        bad.limits["g2tan"] = bad.limits["g2"]
        assert not second_moment_identity(bad).ok


class TestEscobarConstants:
    def test_rho4_closed_form(self, constants):
        # rho_4 / Theta = (n-2)^2/(2(n-1)) = 4/6
        C = constants[4]
        assert C.rho_conf / C.Theta == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_kappa3_ratio_n5(self, constants, moment_tables):
        C = constants[5]
        assert C.kappa3 / moment_tables[5].limit("g2") == pytest.approx(-0.125, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bracket_vs_closed_form(self, constants, n):
        C = constants[n]
        assert C.rho_conf_bracket == pytest.approx(C.rho_conf, rel=1e-6)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_kappa3_negative(self, constants, n):
        assert constants[n].kappa3 < 0

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_rho_positive_and_structural(self, constants, n):
        C = constants[n]
        assert C.rho_conf > 0
        assert C.S_star > 0
        assert C.q * (n - 2) / 2.0 == pytest.approx(n - 1)
        assert C.a_n * (n - 2) / (4.0 * (n - 1)) == pytest.approx(1.0)

    def test_mismatch_detection(self, moment_tables):
        tab = moment_tables[5]
        bad = MomentTable(n=5, R=tab.R, values=dict(tab.values),
                          errors=dict(tab.errors), limits=dict(tab.limits),
                          limit_errors=dict(tab.limit_errors))
        bad.limits["g1tan"] = 0.9 * bad.limits["g1tan"]
        with pytest.raises(ConstantsMismatch):
            escobar_constants(5, bad)

    def test_unfit_channel_constants_flagged(self, constants):
        with pytest.raises(ValueError, match="unfit"):
            constants[5].require_channel_fit()


class TestGNCoefficients:
    def test_exponent_identity(self):
        al, be = gn_exponents(3, 3.0)
        assert (al, be) == (1.0, 3.0)
        assert al + be == 4.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), p=st.floats(1.01, 4.0))
    def test_alpha_plus_beta(self, n, p):
        if n >= 3 and p >= (n + 2) / (n - 2):
            return
        al, be = gn_exponents(n, p)
        assert al + be == pytest.approx(p + 1, rel=1e-12)

    def test_kappa_int_collapse(self):
        # all second moments equal M: kappa_int = (M/6)(1 - (p+1)/2)
        M, p, n = 0.7, 3.0, 3
        al, be = gn_exponents(n, p)
        got = kappa_int_from_moments(M, M, M, al, be)
        assert got == pytest.approx(M / 6.0 * (1.0 - (p + 1) / 2.0), rel=1e-12)

    def test_boundary_moment_cutoff_stability(self, gn23):
        # two cutoff levels agree to 1% (exponential tails)
        Q, Qp, co20 = gn23
        co15 = gn_coefficients(2, 3.0, Q, Qp, R=15.0)
        assert co15.kappa_bdy == pytest.approx(co20.kappa_bdy, rel=1e-2)
        assert co15.kappa_int == pytest.approx(co20.kappa_int, rel=1e-2)

    def test_moments_positive(self, gn23):
        _, _, co = gn23
        for name in ("I_pp", "I_2", "J_grad", "M_pp", "M_2", "M_grad",
                     "m1_pp", "m1_2", "m1_grad", "m1_grad_tan"):
            assert getattr(co, name) > 0
        assert co.C_star > 0


class TestFDEExponents:
    def test_n2_half_exact_floats(self):
        for m in np.linspace(0.1, 0.9, 9):
            assert fde_exponents(2, float(m)).alpha == 0.5

    @settings(max_examples=50, deadline=None)
    @given(num=st.integers(1, 99))
    def test_n2_exact_rational(self, num):
        m = Fraction(num, 100)
        if not (0 < m < 1):
            return
        ex = fde_exponents(2, m)
        assert ex.alpha == Fraction(1, 2)
        assert ex.beta == 1
        assert 0 < ex.theta < 1

    def test_degenerate_alpha_flagged(self):
        ex = fde_exponents(3, Fraction(1, 3))
        assert ex.alpha == 1
        assert not ex.bernoulli_ok

    def test_n3_m09(self):
        ex = fde_exponents(3, 0.9)
        assert ex.alpha == pytest.approx(2.7 / 4.4, rel=1e-12)
        assert ex.beta == pytest.approx((0.9 * 5 + 2 - 3) / 4.4, rel=1e-12)

    def test_sobolev_warning(self):
        with pytest.warns(UserWarning, match="Sobolev"):
            ex = fde_exponents(5, 0.35)  # (n-2)/(n+2) = 3/7 > 0.35
        assert not ex.sobolev_ok

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 8), m=st.floats(0.05, 0.95))
    def test_theta_in_unit_interval(self, n, m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                ex = fde_exponents(n, m)
            except ValueError:
                return  # 2mn + 2 - n <= 0: outside the EEP domain
        assert 0 < ex.theta < 1

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fde_exponents(2, 1.5)
        with pytest.raises(ValueError):
            fde_exponents(1, 0.5)
