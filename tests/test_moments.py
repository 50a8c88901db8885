import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from bubblelab.moments import (
    MomentTable, weighted_moments, verify_harmonic_identities,
    second_moment_identity, escobar_constants, gn_coefficients, fde_exponents,
    kappa_int_from_moments, LogDivergentMoment, ConstantsMismatch,
)
from bubblelab.fixtures import cached_gn_profiles
from bubblelab.profiles import (RadialProfile, escobar_halfspace_optimizer, sphere_area,
                                gn_exponents)


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

    def test_each_table_owns_its_limits(self, halfspace_profiles):
        U = halfspace_profiles[5]
        t1 = weighted_moments(U, 20.0)
        t1.limits["J"] = -1.0
        assert weighted_moments(U, 20.0).limits["J"] > 0.0

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


class TestClosedFormLimits:
    """The Beta-function limits against scipy's adaptive quadrature of the
    same integrands over [0, inf); amplitudes other than the unit-Dirichlet
    one check the c^2 and c^q scaling."""

    @pytest.mark.parametrize("amplitude", [1.0, 2.5])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_limits_match_quadrature(self, n, amplitude):
        U = RadialProfile(kind="escobar-halfspace", n=n, amplitude=amplitude)
        om = sphere_area(n - 2)
        q = 2.0 * (n - 1) / (n - 2)
        # scalar integrands, about 10x cheaper per call than U.grad:
        # |grad U|^2 = c^2 (n-2)^2 B^(1-n), U_r^2 = c^2 (n-2)^2 r^2 B^(-n), B = r^2 + (1+t)^2
        k = amplitude ** 2 * (n - 2) ** 2

        def grad_sq(r, t, tan_only):
            B = r * r + (1.0 + t) ** 2
            return k * r * r * B ** -n if tan_only else k * B ** (1 - n)

        r, t = np.meshgrid(np.geomspace(1e-3, 1e3, 9), np.geomspace(1e-3, 1e3, 9))
        ur, ut = U.grad(r, t)
        assert np.allclose(grad_sq(r, t, True), ur ** 2, rtol=1e-13, atol=0)
        assert np.allclose(grad_sq(r, t, False), ur ** 2 + ut ** 2, rtol=1e-13, atol=0)

        def bulk(weight_pow, tan_only):
            def f(t, r):   # dblquad integrates over its first argument innermost
                return om * t ** weight_pow * grad_sq(r, t, tan_only) * r ** (n - 2)
            return dblquad(f, 0.0, np.inf, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]

        def trace(power):
            return quad(lambda r: om * U.value(r, 0.0) ** power * r ** (n - 2), 0.0, np.inf,
                        epsabs=0.0, epsrel=1e-13)[0]

        quads = {"J": bulk(0, False), "g1": bulk(1, False), "g1tan": bulk(1, True),
                 "Theta": trace(2), "Tq": trace(q)}
        if n >= 5:
            quads["g2"], quads["g2tan"] = bulk(2, False), bulk(2, True)
        assert U.dirichlet_norm_sq() == pytest.approx(quads["J"], rel=1e-12)
        limits = weighted_moments(U, 20.0).limits
        assert limits.keys() == quads.keys()
        for name, value in quads.items():
            assert limits[name] == pytest.approx(value, rel=1e-12), name

    def test_large_dimension(self):
        n = 60
        C = escobar_constants(n, weighted_moments(escobar_halfspace_optimizer(n), 20.0))
        assert C.kappa3 == pytest.approx(-1.0 / ((n - 1) * (n - 3)), rel=1e-12, abs=0)
        assert C.Theta == pytest.approx(2.0 / (n - 3), rel=1e-12, abs=0)


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
                          errors=dict(tab.errors), limits=dict(tab.limits))
        bad.limits["g1"] = bad.limits["Theta"]  # g1 = Theta instead of Theta/2
        rep = verify_harmonic_identities(bad)
        assert not rep.ok
        assert rep.residuals["g1_minus_half_theta"] == pytest.approx(
            bad.limits["Theta"] / 2.0, rel=1e-9)

    def test_synthetic_second_moment_violation(self, moment_tables):
        tab = moment_tables[5]
        bad = MomentTable(n=5, R=tab.R, values=dict(tab.values),
                          errors=dict(tab.errors), limits=dict(tab.limits))
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
                          errors=dict(tab.errors), limits=dict(tab.limits))
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
        co15 = gn_coefficients(Q, Qp, R=15.0)
        assert co15.kappa_bdy == pytest.approx(co20.kappa_bdy, rel=1e-2)
        assert co15.kappa_int == pytest.approx(co20.kappa_int, rel=1e-2)

    @pytest.mark.parametrize("n, p", [(2, 3.0), (3, 3.0), (2, 1.1)])
    def test_untruncated_moments_match_quadrature(self, n, p, gn_quad):
        # the six interior moments and C* against the integrands over [0, inf);
        # at p = 1.1 the profile decays slowly and the cutoff moves out to 40.5
        Q, Qp = cached_gn_profiles(n, p)
        co = gn_coefficients(Q, Qp)
        raw = {(name, i): gn_quad(Q, name, i) for name in ("pp", "w2", "tan") for i in (0, 2)}
        expect = {"I_pp": raw["pp", 0], "I_2": raw["w2", 0], "J_grad": raw["tan", 0],
                  "M_pp": raw["pp", 2] / (n * raw["pp", 0]),
                  "M_2": raw["w2", 2] / (n * raw["w2", 0]),
                  "M_grad": raw["tan", 2] / (n * raw["tan", 0]),
                  "C_star": raw["pp", 0] / (raw["w2", 0] ** (co.alpha / 2.0)
                                            * raw["tan", 0] ** (co.beta / 2.0))}
        for name, value in expect.items():
            assert getattr(co, name) == pytest.approx(value, rel=1e-12, abs=0), name

    def test_errors_keep_their_labels(self, gn23):
        errs = gn23[2].errors
        assert list(errs) == ["I_pp", "I_2", "J_grad", "M_pp", "M_2", "M_grad", "boundary"]
        assert all(0.0 <= e < 1e-9 for e in errs.values())

    def test_moments_positive(self, gn23):
        _, _, co = gn23
        for name in ("I_pp", "I_2", "J_grad", "M_pp", "M_2", "M_grad",
                     "m1_pp", "m1_2", "m1_grad", "m1_grad_tan"):
            assert getattr(co, name) > 0
        assert co.C_star > 0

    def test_mismatched_pair_rejected(self, gn23):
        # n and p are read off the ground state; a near-optimizer of another
        # p would weigh W and kappa_bdy with its own exponent
        Q, _, _ = gn23
        _, Qp22 = cached_gn_profiles(2, 2.0)
        with pytest.raises(ValueError, match=r"one \(n, p\)"):
            gn_coefficients(Q, Qp22)


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
