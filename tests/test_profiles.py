import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import BPoly
from scipy.special import kv, kve

from bubblelab.profiles import (
    escobar_halfspace_optimizer, aubin_talenti, gn_ground_state,
    gn_halfspace_near_optimizer, cutoff, MomentDivergentDimension, ShootingError,
    RadialProfile, sphere_area, _bessel_tail, _collocation_ground_state, _Bernstein, _kv,
)
from bubblelab import moments, profiles
from bubblelab.fixtures import cached_gn_profiles
from bubblelab.energy import halfspace_moment_matrix

REPO = Path(__file__).resolve().parents[1]


class TestEscobarOptimizer:
    def test_value_at_origin_equals_amplitude(self, halfspace_profiles):
        U = halfspace_profiles[5]
        # |y'|^2 + (1+0)^2 = 1 at the origin
        assert U.value(0.0, 0.0) == pytest.approx(U.amplitude, rel=0, abs=0)

    def test_unit_dirichlet_norm(self, halfspace_profiles):
        for n, U in halfspace_profiles.items():
            assert U.dirichlet_norm_sq() == pytest.approx(1.0, abs=1e-8)

    def test_tangential_decay_exponent(self, halfspace_profiles):
        # log-log slope along the y'-axis must match -(n-2) within 1%
        U = halfspace_profiles[5]
        r = np.geomspace(50.0, 400.0, 12)
        slope = np.polyfit(np.log(r), np.log(U.value(r, 0.0)), 1)[0]
        assert abs(slope + 3.0) < 0.03

    @pytest.mark.parametrize("n", [2, 3])
    def test_low_dimensions_rejected(self, n):
        with pytest.raises(MomentDivergentDimension):
            escobar_halfspace_optimizer(n)

    def test_harmonic_in_the_interior(self, halfspace_profiles):
        # discrete Laplacian (tangentially radial form) -> 0 at stencil order
        U = halfspace_profiles[5]
        n = 5

        def lap(r, t, h):
            d_rr = (U.value(r + h, t) - 2 * U.value(r, t) + U.value(r - h, t)) / h ** 2
            d_r = (U.value(r + h, t) - U.value(r - h, t)) / (2 * h)
            d_tt = (U.value(r, t + h) - 2 * U.value(r, t) + U.value(r, t - h)) / h ** 2
            return d_rr + (n - 2) / r * d_r + d_tt

        for (r, t) in [(0.7, 0.4), (1.5, 1.0), (2.5, 0.2)]:
            c1, c2 = lap(r, t, 1e-3), lap(r, t, 5e-4)
            assert abs(c2) < 1e-5
            assert abs(c2) < 0.3 * abs(c1) + 1e-12  # ~O(h^2) consistency

    def test_positive_and_decaying_along_rays(self, halfspace_profiles):
        U = halfspace_profiles[6]
        s = np.linspace(0.0, 30.0, 200)
        for (dr, dt) in [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]:
            vals = U.value(dr * s, dt * s)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)


class TestSphereArea:
    def test_gamma_form_below_the_overflow(self):
        # every k whose Gamma((k+1)/2) is finite keeps its bits
        for k in range(343):
            h = (k + 1) / 2.0
            assert sphere_area(k) == 2.0 * math.pi ** h / math.gamma(h)

    @pytest.mark.parametrize("k", [343, 400, 1000])
    def test_lgamma_form_past_the_overflow(self, k):
        import mpmath
        with mpmath.workdps(40):
            h = mpmath.mpf(k + 1) / 2
            want = float(2 * mpmath.pi ** h / mpmath.gamma(h))
        assert sphere_area(k) == pytest.approx(want, rel=1e-12)

    def test_optimizer_that_cannot_be_normalized_raises(self):
        # its Dirichlet energy is below the smallest float64 from n = 344 on
        with pytest.raises(OverflowError, match="n=400"):
            escobar_halfspace_optimizer(400)


class TestAubinTalenti:
    def test_center_values(self):
        U1 = aubin_talenti(4, lam=1.0)
        U2 = aubin_talenti(4, lam=2.0)
        c4 = U1.amplitude
        assert U1.value(0.0) == pytest.approx(c4)
        assert U2.value(0.0) == pytest.approx(2.0 * c4)  # c4 * 2^((n-2)/2)

    def test_half_height_radius(self):
        U = aubin_talenti(4, lam=1.0)
        # at |y - xi| = 1/lam the value is the center value / 2^((n-2)/2)
        assert U.value(1.0) == pytest.approx(U.value(0.0) * 2 ** (-1.0), rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(0.2, 5.0), y=st.floats(0.0, 8.0))
    def test_dilation_covariance(self, lam, y):
        U1 = aubin_talenti(4, lam=1.0)
        Ul = aubin_talenti(4, lam=lam)
        lhs = Ul.value(y)
        rhs = lam ** 1.0 * U1.value(lam * y)  # lam^((n-2)/2), n = 4
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_dirichlet_norm_matches_quadrature(self, n, lam):
        U = RadialProfile(kind="aubin-talenti-interior", n=n, amplitude=1.7, lam=lam)
        om = sphere_area(n - 1)
        value = quad(lambda r: om * U.grad(r) ** 2 * r ** (n - 1), 0.0, np.inf,
                     epsabs=0.0, epsrel=1e-13)[0]
        assert U.dirichlet_norm_sq() == pytest.approx(value, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            aubin_talenti(4, lam=-1.0)
        with pytest.raises(ValueError):
            aubin_talenti(2)


class TestGNGroundState:
    def test_townes_constant(self, gn23):
        # sharp 2D cubic constant equals 2 / ||Q||_2^2 (Weinstein)
        Q, _, co = gn23
        assert co.C_star == pytest.approx(2.0 / co.I_2, rel=1e-6)

    def test_monotone_decreasing(self, gn23):
        Q, _, _ = gn23
        r = np.linspace(0.0, 12.0, 400)
        vals = Q.value(r)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] == pytest.approx(Q.meta["Q0"], rel=1e-9)

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_ode_residual_sup(self, case, request):
        Q, _, _ = request.getfixturevalue(case)
        from bubblelab.profiles import gn_ode_residual
        # off-node sample of the tabulated solution's own derivatives
        r = np.geomspace(1e-3, 0.9 * Q.tail_r0, 4001) * (1 + 1e-4)
        assert np.max(np.abs(gn_ode_residual(Q, r))) <= 1e-6

    def test_pohozaev_relations_n3(self, gn33):
        # stationarity of the Weinstein quotient under amplitude and dilation
        Q, _, co = gn33
        n, p = 3, 3.0
        I, I2, J = co.I_pp, co.I_2, co.J_grad
        assert J + I2 == pytest.approx(I, rel=1e-4)
        assert (n - 2) / 2 * J + n / 2 * I2 == pytest.approx(n / (p + 1) * I, rel=1e-4)

    def test_tail_below_threshold(self, gn23):
        Q, _, _ = gn23
        assert Q.value(40.0) < 1e-8

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            gn_ground_state(3, 5.0)
        with pytest.raises(ValueError):
            gn_ground_state(3, 0.5)


def _count_factorizations(monkeypatch):
    """The sizes of the matrices ``_lu_factor`` is called on, in order."""
    sizes = []
    factor = profiles._lu_factor

    def counted(A):
        sizes.append(len(A))
        return factor(A)

    monkeypatch.setattr(profiles, "_lu_factor", counted)
    return sizes


def _assert_matches_rk(Q, n, p):
    q0 = Q.meta["Q0"]
    assert Q.meta["residual"] <= 1e-10 * q0 ** p
    # against an independent RK solve from the same centre value, on a
    # range short enough that its unstable mode stays below the tolerance
    r0 = 1e-6
    sol = solve_ivp(lambda r, y: [y[1], y[0] - y[0] ** p - (n - 1) / r * y[1]],
                    (r0, 3.0), [q0 + (q0 - q0 ** p) * r0 ** 2 / (2 * n),
                                (q0 - q0 ** p) * r0 / n],
                    method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
    r = np.linspace(0.05, 3.0, 60)
    assert np.max(np.abs(Q.value(r) - sol.sol(r)[0])) <= 1e-8 * q0
    assert np.all(np.diff(Q.value(np.linspace(0.0, 40.0, 400))) < 0)


class TestCollocationSolve:
    def test_bytes_independent_of_blas_threads(self):
        # the solve never calls BLAS, so the thread count cannot reach it
        code = ("import hashlib; from bubblelab.profiles import gn_ground_state\n"
                "for n in (2, 3):\n"
                "    Q = gn_ground_state(n, 3.0)\n"
                "    print(hashlib.sha256(Q.values.tobytes() + Q.derivs.tobytes()"
                " + Q.derivs2.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.split())
        assert [len(d) for d in digests[0]] == [64, 64]
        assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("n", [2, 3])
    def test_q0_matches_pin(self, n):
        pins = json.loads((REPO / "fixtures" / "derived.json").read_text())["entries"]
        pin = pins[f"gn/n={n}/p=3.0/Q0"]["value"]
        assert gn_ground_state(n, 3.0).meta["Q0"] == pytest.approx(pin, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pinned_solve_factorizes_once_at_n(self, n, monkeypatch):
        # the Petviashvili start on the 101-node half grid, then one
        # Jacobian at N = 200 serves every chord Newton step
        sizes = _count_factorizations(monkeypatch)
        gn_ground_state(n, 3.0)
        assert sizes == [101, 201]

    @pytest.mark.parametrize("n, p", [(3, 1.2), (3, 4.5), (2, 7.0), (3, 4.8)])
    def test_edge_of_range_converges(self, n, p):
        _assert_matches_rk(gn_ground_state(n, p), n, p)

    def test_jacobian_refresh_converges(self, monkeypatch):
        # from a start 10% above the half-grid solution the chord steps
        # stall, and the polish refactorizes the Jacobian until they shrink
        start = profiles._petviashvili
        monkeypatch.setattr(profiles, "_petviashvili",
                            lambda n, p, N: (lambda L, Q: (L, 1.1 * Q))(*start(n, p, N)))
        sizes = _count_factorizations(monkeypatch)
        Q = gn_ground_state(3, 3.0)
        assert sizes.count(201) >= 2
        _assert_matches_rk(Q, 3, 3.0)
        monkeypatch.undo()
        assert np.max(np.abs(Q.values - gn_ground_state(3, 3.0).values)) <= 1e-13 * Q.meta["Q0"]

    def test_near_critical_needs_more_nodes(self):
        # N = 200 cannot resolve the (3, 4.8) profile; the 400-node retry can
        with pytest.raises(ShootingError, match="positive decreasing"):
            _collocation_ground_state(3, 4.8, 200)
        assert len(_collocation_ground_state(3, 4.8, 400)[1]) == 401

    def test_slow_decay_stretches_the_domain(self):
        # Q(14)/Q(0) = 2e-4 at p = 1.2, where the Robin row would be wrong
        assert gn_ground_state(3, 3.0).tail_r0 == 14.0
        assert gn_ground_state(3, 1.2).tail_r0 > 20.0
        with pytest.raises(ShootingError, match="decays too slowly"):
            gn_ground_state(2, 1.05)     # needs L = 46, past the 40 of the grid


class TestInterpolant:
    def test_closed_form_quintic_matches_from_derivatives(self, gn33):
        Q, _, _ = gn33
        ref = BPoly.from_derivatives(Q.grid, np.stack([Q.values, Q.derivs, Q.derivs2], axis=1))
        r = np.linspace(0.0, Q.grid[-1], 200_000)
        assert np.max(np.abs(Q._sp(r) - ref(r))) <= 1e-14

    @pytest.mark.parametrize("n, p", [(2, 3.0), (3, 3.0), (3, 4.5), (2, 7.0)])
    def test_numpy_bernstein_matches_bpoly(self, n, p):
        # the value against scipy's own Hermite construction; the value and
        # both derivatives against scipy's evaluator on the same coefficients
        # (from_derivatives' coefficients differ by rounding, which h^-1 and
        # h^-2 amplify to 1e-12 and 1e-9 in the derivatives)
        Q = gn_ground_state(n, p)
        r = np.linspace(0.0, Q.grid[-1], 200_000)
        hermite = BPoly.from_derivatives(Q.grid, np.stack([Q.values, Q.derivs, Q.derivs2], axis=1))
        same = BPoly(Q._sp.c, Q.grid)
        pairs = [(Q._sp, hermite), (Q._sp, same), (Q._dsp, same.derivative()),
                 (Q._dsp.derivative(), same.derivative(2))]
        for ours, ref in pairs:
            want = ref(r)
            assert np.max(np.abs(ours(r) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_nodes_return_values_exactly(self, gn33):
        # grid[-1] included: the last node evaluates the last piece at s = 1
        Q, _, _ = gn33
        assert np.array_equal(Q._sp(Q.grid), Q.values)

    def test_breakpoints_take_the_right_piece_and_the_end_the_last(self):
        # two discontinuous linear pieces: 0 -> 2 on [0, 1], 1 -> 3 on [1, 2]
        b = _Bernstein(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.0, 1.0, 2.0]))
        assert b(np.array([0.0, 0.5, 1.0, 2.0])).tolist() == [0.0, 1.0, 1.0, 3.0]
        assert b(2.0) == 3.0 and b(3.0) == 5.0 and b(-1.0) == -2.0

    def test_tail_only_where_used_is_bit_identical(self, gn23):
        # reference: spline and tail on every point, then a pick by np.where
        Q, _, _ = gn23
        r = np.concatenate([np.linspace(0.0, 60.0, 3001), [Q.grid[-1]], -np.linspace(0.0, 50.0, 7)])
        a, rmax = np.abs(r), Q.grid[-1]
        val = np.maximum(np.where(a <= rmax, Q._sp(np.clip(a, 0.0, rmax)),
                                  _bessel_tail(Q.n, Q.tail_coeff, a)), 0.0)
        der = np.where(a <= rmax, Q._dsp(np.clip(a, 0.0, rmax)),
                       _bessel_tail(Q.n, Q.tail_coeff, a, deriv=True))
        q, qp = Q._radial(r)
        assert np.array_equal(q, val) and np.array_equal(qp, der)
        assert np.array_equal(Q._radial(r, derivs=False)[0], val)
        for s in (0.7, 55.0):   # 0-d input takes the same path
            q, qp = Q._radial(s)
            q1, qp1 = Q._radial(np.array([s]))
            assert q == q1[0] and qp == qp1[0]


class TestBesselK:
    NUS = (0.0, 0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("nu", NUS)
    def test_far_range_matches_scipy(self, nu):
        # scipy's kv loses digits beyond r ~ 665 and flushes to 0 near 698;
        # there its scaled kve times e^-r is the reference
        r = np.geomspace(14.0, 700.0, 400)
        ref = np.where(r < 660.0, kv(nu, r), kve(nu, r) * np.exp(-r))
        assert np.max(np.abs(_kv(nu, r) / ref - 1.0)) <= 4e-15

    @pytest.mark.parametrize("nu", NUS)
    def test_near_range_matches_scipy(self, nu):
        r = np.geomspace(0.5, 14.0, 400, endpoint=False)
        assert np.max(np.abs(_kv(nu, r) / kv(nu, r) - 1.0)) <= 4e-15

    @pytest.mark.parametrize("nu", (0, 1, 2, 3))
    def test_integral_range_matches_mpmath(self, nu):
        # the Gauss-Legendre range [0.5, 20) against 30-digit values
        import mpmath
        r = np.geomspace(0.5, 20.0, 80, endpoint=False)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(nu, mpmath.mpf(float(x)))) for x in r])
        assert np.max(np.abs(_kv(float(nu), r) / ref - 1.0)) <= 4e-15

    def test_half_integer_orders_are_closed_forms(self):
        r = np.geomspace(0.5, 700.0, 500)
        k12 = np.sqrt(np.pi / (2.0 * r)) * np.exp(-r)
        assert np.array_equal(_kv(0.5, r), k12)
        assert np.array_equal(_kv(1.5, r), k12 * (1.0 + 1.0 / r))

    @pytest.mark.parametrize("nu", (0.0, 1.0, 2.0))
    def test_continuous_across_the_series_switch(self, nu):
        # the integral one ulp below r = 20, the series at 20; K_nu
        # itself changes by ~4e-15 over that ulp
        r = np.array([np.nextafter(20.0, 0.0), 20.0])
        below, at = _kv(nu, r)
        assert abs((below / at) / (kv(nu, r[0]) / kv(nu, r[1])) - 1.0) <= 2e-15

    def test_empty_and_scalar_inputs(self):
        assert _kv(0.0, np.array([])).shape == (0,)
        assert _bessel_tail(2, 1.0, np.array([]), deriv=True).shape == (0,)
        assert _kv(1.0, 14.0).shape == ()
        assert _kv(1.0, 14.0) == _kv(1.0, np.array([14.0]))[0]

    def test_underflow_is_silent(self):
        r = np.array([700.0, 745.0, 800.0, 1e4])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for nu in self.NUS:
                k = _kv(nu, r)
                assert np.all(np.isfinite(k)) and np.all(k[2:] == 0.0)


class TestHalfspaceNearOptimizer:
    def test_no_closed_form_norm(self, gn23):
        # the GN norms are engine moments (moments.gn_coefficients)
        for prof in gn23[:2]:
            with pytest.raises(ValueError, match="closed-form"):
                prof.dirichlet_norm_sq()

    def test_dirichlet_trace(self, gn23):
        _, Qp, _ = gn23
        r = np.linspace(0.0, 10.0, 50)
        assert np.all(Qp.value(r, 0.0) == 0.0)

    def test_shift_two_on_the_ground_state_arrays(self, gn23):
        Q, Qp, _ = gn23
        built = gn_halfspace_near_optimizer(Q)
        assert built.kind == Qp.kind == "gn-halfspace-near-optimizer"
        assert built.shift == Qp.shift == 2.0
        assert np.shares_memory(Qp.values, Q.values)
        with pytest.raises(ValueError):
            gn_halfspace_near_optimizer(Qp)

    def test_deficit_target(self, gn23):
        _, _, co = gn23
        assert co.W_flat_halfspace >= co.C_star - 0.05

    def test_shift_ladder_monotone(self, gn23):
        # W rises toward C* with the depth of the center
        import dataclasses
        Q, _, co = gn23
        quots = []
        for s in (2.0, 4.0, 8.0):
            prof = dataclasses.replace(Q, kind="gn-halfspace-near-optimizer",
                                       shift=s, meta={})
            M = halfspace_moment_matrix(prof, 20.0)
            quots.append(moments.weinstein_quotient(M, 3.0))
        assert quots[0] < quots[1] < quots[2] <= co.C_star + 1e-9

    def test_unreachable_deficit_fails(self, gn23, monkeypatch):
        Q, Qp, _ = gn23
        monkeypatch.setattr(moments, "_GN_DELTA0", 1e-12)
        with pytest.raises(ShootingError, match=r"at R=20.0: W = .* < \(1 - delta0\) C\*"):
            moments.gn_coefficients(Q, Qp)

    @pytest.mark.parametrize("n, p", [(2, 1.4), (2, 7.0), (3, 1.3), (3, 4.0)])
    def test_relative_deficit_bound_holds_on_the_range(self, n, p):
        # the largest shift-2 deficits (near p = 1.4) and the smallest C*
        co = moments.gn_coefficients(*cached_gn_profiles(n, p))
        assert 0.0 < 1.0 - co.W_flat_halfspace / co.C_star < moments._GN_DELTA0

    @pytest.mark.parametrize("n, p", [(2, 5.0), (3, 3.0)])
    def test_shallow_near_optimizer_fails(self, n, p):
        # C* < 0.05 here, so only a relative bound can fail; a center at
        # depth 0.5 misses C* by 48% and 27%
        import dataclasses
        Q, Qp = cached_gn_profiles(n, p)
        with pytest.raises(ShootingError, match="misses its deficit target"):
            moments.gn_coefficients(Q, dataclasses.replace(Qp, shift=0.5))


class TestCutoff:
    def test_plateau_and_support(self):
        chi = cutoff(7.0)
        assert chi(0.0) == 1.0
        assert chi(6.99) == 1.0
        assert chi(14.0) == 0.0
        assert chi(20.0) == 0.0

    def test_gradient_scaling(self):
        # sup |grad chi_R| * R is bounded by the base-shape constant
        for R in (1.0, 4.0, 32.0):
            chi = cutoff(R)
            s = np.linspace(R, 2 * R, 4000)
            assert np.max(np.abs(chi.deriv(s))) * R <= 2.0 + 1e-6


class TestReadOnlyArrays:
    def test_shared_profile_rejects_writes(self, gn23):
        Q, Qp, _ = gn23
        for prof in (Q, Qp):
            for name in ("grid", "values", "derivs", "derivs2"):
                with pytest.raises(ValueError):
                    getattr(prof, name)[0] = 1.0

    def test_caller_arrays_stay_writable(self):
        grid = np.linspace(0.0, 4.0, 9)
        values, derivs = np.exp(-grid), -np.exp(-grid)
        prof = RadialProfile(kind="gn-ground-state", n=2, amplitude=1.0, p=3.0,
                             grid=grid, values=values, derivs=derivs)
        for own, held in ((grid, prof.grid), (values, prof.values), (derivs, prof.derivs)):
            assert own.flags.writeable and not held.flags.writeable
