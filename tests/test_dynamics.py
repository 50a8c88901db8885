import math
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import solve_ivp

from bubblelab import energy, fixtures
from bubblelab.dynamics import (
    DecayParams, decay_envelope, ode_decay_check, extinction_time_lower,
    eig_competitor_bound, small_window_lambda1, window_ladder,
    capacity_blowup_bound, euclidean_leading_constant, _bessel01,
)
from bubblelab.moments import fde_exponents


def params(n=2, m=0.5, E0=1.0, M0=1.0, C=1.0):
    return DecayParams(n=n, m=m, E0=E0, M0=M0, C=C)


# independent Bessel oracle: J0 by power series, first root by bisection
def j0_series(x: float) -> float:
    total, term = 1.0, 1.0
    for k in range(1, 60):
        term *= -(x * x / 4.0) / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def _bisect(f, lo: float, hi: float) -> float:
    assert f(lo) * f(hi) < 0, "bracket has no sign change"
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def j0_first_root() -> float:
    return _bisect(j0_series, 2.0, 3.0)


# independent window oracles: math-only series and bisection, no scipy.special
def _bessel_series(x: float):
    """(J0, J1, Y0, Y1)(x) by their power series (DLMF 10.2.2, 10.8.1); x <= 2."""
    q = -(x * x / 4.0)
    j0 = j1 = 0.0
    s0 = s1 = 0.0                       # the psi-weighted sums of Y0 and Y1
    psi = -0.5772156649015329           # psi(1) = -Euler gamma
    term = 1.0                          # q^m / (m!)^2
    for m in range(40):
        psi_next = psi + 1.0 / (m + 1)  # psi(m + 2)
        j0 += term
        j1 += term / (m + 1)
        s0 += 2.0 * psi * term
        s1 += (psi + psi_next) * term / (m + 1)
        term *= q / ((m + 1) * (m + 1))
        psi = psi_next
    h = x / 2.0
    log_h = math.log(h)
    j1 *= h
    y0 = (2.0 * log_h * j0 - s0) / math.pi
    y1 = (2.0 * log_h * j1 - 1.0 / h - h * s1) / math.pi
    return j0, j1, y0, y1


def window_root(n: int, d: float) -> float:
    """First positive k of the mixed window problem, L = 1 - d (small d).

    n = 3: k cos(kL) = sin(kL); n = 2: J1(k) Y0(kd) = Y1(k) J0(kd).
    """
    L = 1.0 - d
    if n == 3:
        # k (d - k^2/3) to leading order: positive below sqrt(3d)
        return _bisect(lambda k: k * math.cos(k * L) - math.sin(k * L),
                       0.5 * math.sqrt(3.0 * d), math.pi / (2.0 * L))

    def cross(k):
        J0k, J1k, _, Y1k = _bessel_series(k)
        J0kd, _, Y0kd, _ = _bessel_series(k * d)
        return J1k * Y0kd - Y1k * J0kd

    return _bisect(cross, 0.1, 2.0)


def mpmath_window_root(n: int, d: float, k0: float) -> float:
    """lambda_1 = k^2 from a 30-digit root of the characteristic equation near k0."""
    with mpmath.workdps(30):
        d = mpmath.mpf(d)
        L = 1 - d
        if n == 3:
            def f(k):
                return k * mpmath.cos(k * L) - mpmath.sin(k * L)
        else:
            def f(k):
                return (mpmath.besselj(1, k) * mpmath.bessely(0, k * d)
                        - mpmath.bessely(1, k) * mpmath.besselj(0, k * d))
        return float(mpmath.findroot(f, mpmath.mpf(k0)) ** 2)


def bessel_modulus(x):
    """sqrt(J_n^2 + Y_n^2) for n = 0, 1, 0, 1: the scale of an absolute error."""
    mod = np.hypot([special.j0(x), special.j1(x)], [special.y0(x), special.y1(x)])
    return np.concatenate([mod, mod])


class TestNumpyBessel:
    X = np.concatenate([np.geomspace(1e-8, 2.0, 200), np.linspace(2.0, 100.0, 981)[1:]])

    def test_against_scipy(self):
        x = self.X
        ref = np.array([special.j0(x), special.j1(x), special.y0(x), special.y1(x)])
        # scipy itself is up to 6.1e-15 of the modulus off mpmath for x >= 20
        assert np.all(np.abs(_bessel01(x) - ref) <= 1e-14 * bessel_modulus(x))

    def test_against_mpmath(self):
        x = np.concatenate([np.geomspace(1e-8, 2.0, 8), np.linspace(2.1, 19.9, 16),
                            np.linspace(20.0, 100.0, 8)])
        with mpmath.workdps(30):
            ref = np.array([[float(f(n, mpmath.mpf(v))) for v in x]
                            for f, n in ((mpmath.besselj, 0), (mpmath.besselj, 1),
                                         (mpmath.bessely, 0), (mpmath.bessely, 1))])
        assert np.all(np.abs(_bessel01(x) - ref) <= 3e-15 * bessel_modulus(x))

    def test_series_branch_against_series_oracle(self):
        x = self.X[self.X <= 2.0]
        ref = np.array([_bessel_series(v) for v in x]).T
        # the same series summed in another order: each is within 4e-16 of
        # the modulus of mpmath's values
        assert np.all(np.abs(_bessel01(x) - ref) <= 1e-15 * bessel_modulus(x))

    def test_schlaefli_branch_keeps_its_bits(self):
        # (J0, J1, Y0, Y1) at 3.7 and 11.3, as when Y's rule was dynamics' own
        got = [v.hex() for v in _bessel01(np.array([3.7, 11.3])).ravel().tolist()]
        assert got == ["-0x1.98cfcd6c38020p-2", "-0x1.cb084b1e7a317p-4", "0x1.b9020e18f5f38p-5",
                       "-0x1.b6cb56d484cd7p-3", "0x1.b27afb33f1b79p-4", "-0x1.ac3e6b3acaf4bp-3",
                       "0x1.aaacafcf0877ap-2", "0x1.a5a6b56a51de2p-4"]

    def test_branches_agree_at_their_joins(self):
        # each side is within 3e-15 of the modulus of the truth
        for x0 in (2.0, 20.0):
            x = np.array([np.nextafter(x0, 0.0), x0, np.nextafter(x0, 3 * x0)])
            got = _bessel01(x)
            assert np.all(np.abs(got - got[:, [1]]) <= 6e-15 * bessel_modulus(x))


class TestDecayEnvelope:
    def test_alpha_half_unit_kappa(self):
        # kappa = (m+1) C^(-2) M0^(-2): choose C, M0 so kappa = 1
        par = params(C=1.5 ** 0.5, M0=1.0)
        assert par.alpha == 0.5
        assert par.kappa == pytest.approx(1.0, rel=1e-12)
        t = np.linspace(0.0, 30.0, 7)
        assert np.allclose(decay_envelope(par, t), 1.0 / (1.0 + t), rtol=1e-14)

    def test_t0_returns_E0(self):
        for m in (0.3, 0.5, 0.8):
            par = params(m=m, E0=2.7)
            assert decay_envelope(par, 0.0) == pytest.approx(2.7, rel=1e-14)

    def test_large_time_rate_n2(self):
        # n = 2: envelope * t -> 1/kappa
        par = params(m=0.4)
        t = 1e8
        assert decay_envelope(par, t) * t == pytest.approx(1.0 / par.kappa, rel=1e-6)

    def test_no_bernoulli_regime_rejected(self):
        bad = DecayParams(n=3, m=1.0 / 3.0, E0=1.0, M0=1.0, C=1.0)  # alpha = 1
        with pytest.raises(ValueError, match="Bernoulli"):
            decay_envelope(bad, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(m=st.floats(0.15, 0.85))
    def test_envelope_continuous_in_m(self, m):
        t = 3.0
        e1 = decay_envelope(params(m=m), t)
        e2 = decay_envelope(params(m=m + 1e-7), t)
        assert abs(e1 - e2) < 1e-4


class TestODECheck:
    def test_alpha_half_closed_form(self):
        par = params()
        chk = ode_decay_check(par, 100.0)
        assert chk["sup_gap"] <= 1e-8
        assert chk["majorized"]

    def test_alpha_07(self):
        # n = 3, m chosen so alpha = 0.7: alpha = 3m/(6m-1) -> m = 7/11... use
        # any admissible pair and read alpha off the params
        par = DecayParams(n=3, m=0.7, E0=1.0, M0=1.0, C=1.0)
        assert 0 < par.alpha < 1
        chk = ode_decay_check(par, 50.0)
        assert chk["sup_gap"] <= 1e-8
        assert chk["majorized"]

    def test_near_exponential_flagged(self):
        # alpha -> 1^-: n = 3, m slightly above 1/3
        par = DecayParams(n=3, m=0.3404, E0=1.0, M0=1.0, C=1.0)
        assert par.alpha > 0.95
        chk = ode_decay_check(par, 5.0)
        assert chk["near_exponential"]

    @pytest.mark.parametrize("n, m, E0, M0, C, horizon", [
        (2, 0.5, 1.0, 1.0, None, 100.0),     # the CLI's default run
        (2, 0.5, 0.5, 2.0, None, 200.0),
        (2, 0.5, 2.0, 0.5, None, 50.0),
        (3, 0.7, 1.0, 1.0, 1.0, 50.0),
        (3, 0.3404, 1.0, 1.0, 1.0, 5.0),     # alpha > 0.95
    ])
    def test_same_steps_and_bits_as_rk45(self, n, m, E0, M0, C, horizon):
        par = DecayParams(n=n, m=m, E0=E0, M0=M0, C=C)
        chk = ode_decay_check(par, horizon)

        def rhs(t, y):
            return [-par.kappa * max(y[0], 0.0) ** (1.0 / par.alpha)]

        sol = solve_ivp(rhs, (0.0, horizon), [par.E0], t_eval=chk["t"],
                        rtol=1e-11, atol=1e-13, method="RK45")
        assert np.array_equal(sol.t, chk["t"])
        assert np.array_equal(sol.y[0], chk["E"])
        assert chk["nfev"] == sol.nfev

    def test_euclidean_leading_mode(self):
        par = DecayParams(n=2, m=0.5, E0=1.0, M0=1.0)
        assert par.C == pytest.approx(euclidean_leading_constant(2, 0.5), rel=1e-9)
        assert par.C > 0

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_euclidean_constant_is_the_sharp_constant(self, case, request):
        # C*(n, p = 1/m) is the C_star of gn_coefficients, bit for bit
        co = request.getfixturevalue(case)[2]
        assert euclidean_leading_constant(co.n, 1.0 / co.p) == co.C_star

    def test_ground_state_solved_once(self, monkeypatch):
        # the EEP constant reads the process memo of the ground state alone:
        # one solve for two parameter sets, and no near-optimizer solve
        monkeypatch.setattr(energy, "_memo", OrderedDict())
        solves = []

        def counting(n, p, solve=fixtures.gn_ground_state):
            solves.append((n, p))
            return solve(n, p)

        def near_optimizer(*args, **kwargs):
            raise AssertionError("the EEP constant needs no near-optimizer")

        monkeypatch.setattr(fixtures, "gn_ground_state", counting)
        monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
        first = DecayParams(n=2, m=0.5, E0=1.0, M0=1.0)
        second = DecayParams(n=2, m=0.5, E0=2.0, M0=3.0)
        assert solves == [(2, 2.0)] and first.C == second.C

    def test_kappa_formula(self):
        par = DecayParams(n=2, m=0.5, E0=2.0, M0=3.0, C=1.7)
        ex = fde_exponents(2, 0.5)
        expect = 1.5 * 1.7 ** (-1.0 / ex.alpha) * 3.0 ** (-ex.beta / ex.alpha)
        assert par.kappa == pytest.approx(expect, rel=1e-12)


class TestExtinction:
    def test_arithmetic(self):
        assert extinction_time_lower(1.0, 0.5, 1.0) == pytest.approx(2.0)

    @settings(max_examples=20, deadline=None)
    @given(y0=st.floats(0.1, 10.0))
    def test_scaling_in_y0(self, y0):
        m, lam = 0.4, 2.0
        base = extinction_time_lower(1.0, m, lam)
        assert extinction_time_lower(y0, m, lam) == pytest.approx(
            base * y0 ** (1 - m), rel=1e-12)

    def test_ode_witness_crossing(self):
        # z = y^(1-m) falls linearly; its numerical crossing time matches
        y0, m, lam = 1.7, 0.5, 1.3
        bound = extinction_time_lower(y0, m, lam)

        def rhs(t, z):
            return [-(1.0 - m) * lam]

        def hit(t, z):
            return z[0]
        hit.terminal = True

        sol = solve_ivp(rhs, (0.0, 10 * bound), [y0 ** (1 - m)], events=[hit],
                        rtol=1e-12, atol=1e-14)
        assert sol.t_events[0][0] == pytest.approx(bound, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            extinction_time_lower(1.0, 1.2, 1.0)
        with pytest.raises(ValueError):
            extinction_time_lower(-1.0, 0.5, 1.0)


class TestEigCompetitor:
    def test_unit_volume(self):
        # vol = 1: bound = lambda^(-beta/2)
        lam, n, p = 2.3, 2, 3.0
        beta = n * (p - 1) / 2.0
        assert eig_competitor_bound(1.0, lam, n, p) == pytest.approx(lam ** (-beta / 2))

    def test_lambda_halving_scales(self):
        n, p = 3, 3.0
        beta = n * (p - 1) / 2.0
        b1 = eig_competitor_bound(2.0, 1.0, n, p)
        b2 = eig_competitor_bound(2.0, 0.5, n, p)
        assert b2 == pytest.approx(b1 * 2 ** (beta / 2), rel=1e-12)

    def test_unit_disk(self):
        # n = 2, p = 3 (beta = 2): bound = 1/(pi lambda_1) with the disk value
        lam = small_window_lambda1(2, 0.0)
        b = eig_competitor_bound(math.pi, lam, 2, 3.0)
        assert b == pytest.approx(1.0 / (math.pi * lam), rel=1e-10)


class TestWindowEigenvalues:
    def test_full_disk_vs_bessel_oracle(self):
        lam = small_window_lambda1(2, 0.0)
        j01 = j0_first_root()
        assert abs(lam - j01 ** 2) / j01 ** 2 < 1e-6

    def test_n3_exact_transcendental(self):
        # mixed problem in n = 3 solves tan(k(1-d)) = k exactly
        d = 0.2
        lam = small_window_lambda1(3, d)
        k = math.sqrt(lam)
        assert math.tan(k * (1 - d)) == pytest.approx(k, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_default_ladder_vs_characteristic_root(self, n, d):
        # the CLI's default ladder 1e-2:1e-5, to near double precision
        k = window_root(n, d)
        assert abs(small_window_lambda1(n, d) - k * k) <= 1e-10 * k * k

    @pytest.mark.parametrize("d", [1e-8, 1e-12, 1e-16])
    def test_n3_tiny_window_capacity_limit(self, d):
        # lambda = 3d (1 + 9d/5 + O(d^2)) as d -> 0; at these d the form
        # k cos(kL) - sin(kL) loses its digits to cancellation
        assert small_window_lambda1(3, d) == pytest.approx(3 * d * (1 + 1.8 * d), rel=1e-12)

    @pytest.mark.parametrize("d", [1e-2, 0.5, 0.9])
    def test_n2_neumann_residual_changes_sign(self, d):
        # the Bessel equation against the radial ODE itself: u(d) = 0 and
        # u'(1) = 0 at lambda, so u'(1) changes sign across it
        lam = small_window_lambda1(2, d)

        def du1(lam):
            sol = solve_ivp(lambda r, y: [y[1], -lam * y[0] - y[1] / r], (d, 1.0),
                            [0.0, 1.0], rtol=1e-11, atol=1e-14, method="DOP853")
            assert sol.success
            return sol.y[1, -1]

        assert du1(lam * (1 - 1e-6)) * du1(lam * (1 + 1e-6)) < 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_mpmath_root(self, n):
        # the root is bisected to adjacent floats from Bessel functions good to
        # a few ulps, so lambda_1 holds 1e-12 relative across the range
        for d in np.geomspace(1e-8, 0.95, 40):
            lam = small_window_lambda1(n, float(d))
            ref = mpmath_window_root(n, float(d), math.sqrt(lam))
            assert abs(lam - ref) <= 1e-12 * ref, (n, d)

    def test_disk_is_j01_squared(self):
        j01 = float(mpmath.besseljzero(0, 1))
        assert small_window_lambda1(2, 0.0) == pytest.approx(j01 * j01, rel=1e-15)

    def test_monotone_in_window_radius(self):
        lams = [small_window_lambda1(2, d) for d in (0.05, 0.2, 0.5, 0.8)]
        assert np.all(np.diff(lams) > 0)

    def test_thin_annulus_blows_up(self):
        assert small_window_lambda1(2, 0.9) > small_window_lambda1(2, 0.5) * 5

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            small_window_lambda1(4, 0.1)

    def test_roots_keep_their_bits(self):
        # the disk, two wide windows (k = 2.7 and 15.4: Y on its Schlaefli
        # branch) and the default ladders, as when Y's rule was dynamics' own
        lam = [small_window_lambda1(2, d) for d in (0.0, 0.5, 0.9)] + [
            v for n in (2, 3) for v in window_ladder(n, np.geomspace(1e-2, 1e-5, 4))["lambda1"]]
        assert [float(v).hex() for v in lam] == [
            "0x1.721fb80462bbcp+2", "0x1.da0a00138f2d1p+2", "0x1.d8be98596f82ep+7",
            "0x1.06fc89bfcd7acp-1", "0x1.4b4bb91417131p-2", "0x1.e32547641b580p-3",
            "0x1.7c152cc62c07ep-3", "0x1.f47f7c813fd5fp-6", "0x1.89ecc11a2ad78p-9",
            "0x1.3aa12269d093fp-12", "0x1.f7535694059dep-16"]


class TestCapacityScaling:
    def test_n2_ladder_stabilizes(self):
        lad = window_ladder(2, [1e-2, 1e-3, 1e-4, 1e-5])
        assert lad["tail_variation"] < 0.15

    def test_n3_ladder_stabilizes(self):
        lad = window_ladder(3, [1e-2, 1e-3, 1e-4, 1e-5])
        assert lad["tail_variation"] < 0.15
        # the scaled column converges to the exact capacity constant 3
        assert lad["scaled"][-1] == pytest.approx(3.0, rel=1e-3)

    def test_capacity_blowup_exponent_n3(self):
        cap = capacity_blowup_bound(3, 3.0, [1e-2, 1e-3, 1e-4, 1e-5])
        assert abs(cap["fitted_exponent"] - cap["expected_exponent"]) \
            <= 0.1 * abs(cap["expected_exponent"])

    def test_bound_carries_the_ladder_it_solved(self, monkeypatch):
        from bubblelab import dynamics
        ds = [1e-2, 1e-3, 1e-4]
        want = window_ladder(3, ds)
        solve, calls = dynamics.small_window_lambda1, []
        monkeypatch.setattr(dynamics, "small_window_lambda1",
                            lambda n, d: calls.append(d) or solve(n, d))
        cap = capacity_blowup_bound(3, 3.0, ds)
        assert calls == ds                        # one solve per rung
        for key, value in want.items():
            assert np.array_equal(cap[key], value), key

    def test_fixed_window_bound_finite(self):
        cap = capacity_blowup_bound(2, 3.0, [1e-2, 1e-3])
        assert np.all(np.isfinite(cap["bound"])) and np.all(cap["bound"] > 0)
