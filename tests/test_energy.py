import dataclasses
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblelab import energy
from bubblelab.geometry import (BoundaryPointData, InteriorPointData, fermi_jet,
                                geometry_catalog)
from bubblelab.energy import (
    BubbleParams, ChartOverflowError, HalfspaceEnergyModel, InteriorEnergyModel,
    QuadratureNonConvergence, escobar_quotient, plain_trace_quotient, gn_quotient,
    deficit_series, channel_fit_second_order, fit_power_series, sphere_average,
    halfspace_moment_matrix, _ser_div, _ser_pow,
)
from bubblelab.moments import weighted_moments
from bubblelab.profiles import cutoff, sphere_area
from bubblelab.quadrature import QuadratureSpec, grid_1d

EPS6 = 1e-2 * 0.5 ** np.arange(6)


@pytest.fixture(scope="module")
def flat_model(halfspace_profiles):
    jet = fermi_jet(geometry_catalog("flat-halfspace", 5).data, order=2,
                    chart_radius=2.0)
    return HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)


@pytest.fixture(scope="module")
def h_model(halfspace_profiles):
    jet = fermi_jet(geometry_catalog("h-only", 5, H=1.0).data, order=2,
                    chart_radius=2.0)
    return HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)


class TestSphereAverage:
    def test_quadratic(self):
        A = np.diag([1.0, 2.0, 3.0])
        assert sphere_average(A, 3) == pytest.approx(2.0)

    def test_quartic_identity(self):
        # <(w.w)^2> = <|w|^4> = 1 on the sphere
        m = 4
        I = np.eye(m)
        T = np.einsum("ab,cd->abcd", I, I)
        assert sphere_average(T, m) == pytest.approx(1.0)

    def test_riemann_structure_vanishes(self):
        # antisymmetric pair slots kill the contraction
        m = 4
        I = np.eye(m)
        R = np.einsum("ab,cd->acbd", I, I) - np.einsum("ad,cb->acbd", I, I)
        assert sphere_average(np.transpose(R, (1, 3, 0, 2)), m) == pytest.approx(0.0, abs=1e-14)

    def test_odd_vanishes(self):
        assert sphere_average(np.ones(5), 5) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_isotropic_closed_forms(self, m, seed):
        # <w_i w_j> = delta_ij / m and
        # <w_i w_j w_k w_l> = (d_ij d_kl + d_ik d_jl + d_il d_jk) / (m (m+2))
        rng = np.random.default_rng(seed)
        I = np.eye(m)
        i, j = rng.integers(m, size=2)
        assert sphere_average(np.outer(I[i], I[j]), m) == pytest.approx((i == j) / m, abs=1e-15)
        T2 = rng.standard_normal((m, m))
        assert sphere_average(T2, m) == pytest.approx(np.trace(T2) / m, rel=1e-12, abs=1e-12)
        T4 = rng.standard_normal((m,) * 4)
        pairs = (np.einsum("iijj", T4) + np.einsum("ijij", T4) + np.einsum("ijji", T4))
        assert sphere_average(T4, m) == pytest.approx(pairs / (m * (m + 2)),
                                                      rel=1e-12, abs=1e-12)
        assert sphere_average(rng.standard_normal((m,) * 3), m) == 0.0


def _taylor(f, K, r=0.1, N=64):
    """First K Taylor coefficients of f at 0 from N values on the circle |x| = r."""
    x = r * np.exp(2j * np.pi * np.arange(N) / N)
    return (np.fft.fft(f(x))[:K] / N / r ** np.arange(K)).real


def _poly(c, x):
    return sum(ck * x ** k for k, ck in enumerate(c))


_lead = st.floats(0.5, 2.0)
_tail = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)


class TestSeriesAlgebra:
    """Truncated-series helpers against direct evaluation of the composed function."""

    @settings(max_examples=60, deadline=None)
    @given(a0=_lead, tail=_tail, alpha=st.floats(-3.0, 3.0))
    def test_ser_pow(self, a0, tail, alpha):
        a = a0 * np.array([1.0] + tail)
        ref = _taylor(lambda x: _poly(a, x) ** alpha, len(a))
        np.testing.assert_allclose(_ser_pow(a, alpha), ref, rtol=1e-9,
                                   atol=1e-9 * a0 ** alpha)

    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6), b0=_lead,
           tail=_tail, alpha=st.floats(-3.0, 3.0))
    def test_ser_div_of_power(self, a, b0, tail, alpha):
        # the shape of every quotient series: numerator / denominator^alpha
        K = min(len(a), len(tail) + 1)
        a, b = np.array(a[:K]), b0 * np.array([1.0] + tail[:K - 1])
        ref = _taylor(lambda x: _poly(a, x) / _poly(b, x) ** alpha, K)
        np.testing.assert_allclose(_ser_div(a, _ser_pow(b, alpha)), ref, rtol=1e-9,
                                   atol=1e-9 * (1.0 + np.abs(a).max()) * b0 ** -alpha)


class TestMomentEngine:
    def test_matches_per_monomial_quadrature(self, halfspace_profiles, gn23):
        # reference: each monomial integrated on its own, on the fine grid
        R, spec = 20.0, QuadratureSpec(order=12)
        fine = spec.refined()
        edges = (R, 1.5 * R)
        r, wr = grid_1d(0.0, 2 * R, fine.order, fine.subdiv, extra=edges)
        U = halfspace_profiles[5]
        Rg, Tg = np.meshgrid(r, r, indexing="ij")
        w = cutoff(R)(np.sqrt(Rg ** 2 + Tg ** 2)) * U.value(Rg, Tg)
        base = np.outer(wr, wr) * w * sphere_area(3) * Rg ** 3
        M = halfspace_moment_matrix(U, R, spec)
        for i in range(5):
            for j in range(5):
                ref = np.sum(base * Rg ** i * Tg ** j)
                assert M.w1[i, j] == pytest.approx(ref, rel=1e-12)
        Q = gn23[0]
        wq = cutoff(R)(r) * Q.value(r)
        Mq = halfspace_moment_matrix(Q, R, spec)
        for i in range(5):
            ref = np.sum(wr * wq ** 2 * sphere_area(1) * r * r ** i)
            assert Mq.w2[i, 0] == pytest.approx(ref, rel=1e-12)
        assert not Mq.nor.any() and not Mq.w2[:, 1:].any()

    def test_underresolved_spec_raises(self, halfspace_profiles, gn23):
        spec = QuadratureSpec(order=4)
        with pytest.raises(QuadratureNonConvergence):
            weighted_moments(halfspace_profiles[5], 40.0, spec)
        with pytest.raises(QuadratureNonConvergence):
            InteriorEnergyModel(InteriorPointData(n=2, scal=0.0), gn23[0], 20.0, spec)


@pytest.fixture
def builds(monkeypatch):
    """An empty memo for the test, and the arguments of every real build."""
    monkeypatch.setattr(energy, "_memo", OrderedDict())
    calls = []
    build = energy._build_moment_matrix

    def counting(*args):
        calls.append(args[1:])
        return build(*args)

    monkeypatch.setattr(energy, "_build_moment_matrix", counting)
    return calls


_FIELDS = ("tan", "nor", "w2", "w1", "pp", "tr2", "trq", "trq1")


class TestMatrixMemo:
    def test_repeat_hits_bit_identical(self, builds, halfspace_profiles):
        U = halfspace_profiles[5]
        first = halfspace_moment_matrix(U, 20.0)
        again = halfspace_moment_matrix(U, 20)            # int R: same key
        assert again is first and len(builds) == 1
        fresh = energy._build_moment_matrix(U, 20.0, QuadratureSpec(), None, 0.0)
        assert len(builds) == 2
        for name in _FIELDS:
            a, b = getattr(again, name), getattr(fresh, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        for name in fresh.delta:
            assert again.delta[name].tobytes() == fresh.delta[name].tobytes()
        assert again.err == fresh.err

    def test_models_share_one_build(self, builds, halfspace_profiles):
        U = halfspace_profiles[5]
        for geo, kw in (("ricci-only", {}), ("h-only", {"H": 1.0}), ("flat-halfspace", {})):
            jet = fermi_jet(geometry_catalog(geo, 5, **kw).data, order=2, chart_radius=2.0)
            HalfspaceEnergyModel(jet, U, 20.0)
        assert len(builds) == 1

    def test_distinct_keys(self, builds, halfspace_profiles):
        U = halfspace_profiles[5]
        variants = [(U, 20.0, QuadratureSpec(), None, 0.0),
                    (U, 20.0, QuadratureSpec(order=24), None, 0.0),
                    (U, 20.0, QuadratureSpec(), 2.0, 0.0),
                    (U, 20.0, QuadratureSpec(), None, 1.0),
                    (U, 25.0, QuadratureSpec(), None, 0.0),
                    (dataclasses.replace(U, amplitude=2.0 * U.amplitude), 20.0,
                     QuadratureSpec(), None, 0.0)]
        mats = [halfspace_moment_matrix(*v) for v in variants]
        assert len(builds) == len(variants) == len(energy._memo)
        assert len({id(M) for M in mats}) == len(variants)
        assert mats[5].w2[0, 0] == pytest.approx(4.0 * mats[0].w2[0, 0], rel=1e-14)

    def test_normalized_and_reloaded_copies_hit(self, builds, halfspace_profiles, gn23):
        U = halfspace_profiles[5]
        M = halfspace_moment_matrix(U, 20.0)
        raw = dataclasses.replace(U, amplitude=1.0, meta={"note": "ignored"})
        assert halfspace_moment_matrix(raw.normalized(), 20.0) is M
        # re-normalizing moves the amplitude by a few ulps: a different key
        assert U.normalized().amplitude != U.amplitude
        halfspace_moment_matrix(U.normalized(), 20.0)
        assert len(builds) == 2
        Qp = gn23[1]
        B = halfspace_moment_matrix(Qp, 20.0, p_exponent=3.0, t_offset=Qp.shift)
        copy = dataclasses.replace(Qp, grid=Qp.grid.copy(), values=Qp.values.copy(),
                                   derivs=Qp.derivs.copy(), derivs2=Qp.derivs2.copy(),
                                   meta={})
        assert halfspace_moment_matrix(copy, 20.0, p_exponent=3.0,
                                       t_offset=copy.shift) is B
        assert len(builds) == 3

    def test_tabulated_data_enters_the_key(self, builds, gn23):
        Q = gn23[0]
        values = Q.values.copy()
        values[-1] *= 1.0 + 1e-12
        halfspace_moment_matrix(Q, 20.0)
        halfspace_moment_matrix(dataclasses.replace(Q, values=values, meta={}), 20.0)
        assert len(builds) == 2

    def test_cached_arrays_read_only(self, halfspace_profiles):
        M = halfspace_moment_matrix(halfspace_profiles[5], 20.0)
        for name in ("tan", "nor", "w2", "w1", "tr2", "trq", "trq1"):
            with pytest.raises(ValueError):
                getattr(M, name)[0, 0] = 1.0
        with pytest.raises(ValueError):
            M.delta["tan"][0, 0] = 1.0
        with pytest.raises(TypeError):
            M.delta["tan"] = np.zeros((5, 5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            M.tan = np.zeros((5, 5))

    def test_failures_not_cached(self, builds, halfspace_profiles):
        spec = QuadratureSpec(order=4)
        for _ in range(2):
            with pytest.raises(QuadratureNonConvergence):
                halfspace_moment_matrix(halfspace_profiles[5], 40.0, spec)
        assert len(builds) == 2 and not energy._memo

    def test_size_stays_at_cap(self, builds, monkeypatch, halfspace_profiles):
        monkeypatch.setattr(energy, "_build_moment_matrix", lambda *args: object())
        U = halfspace_profiles[5]
        first = halfspace_moment_matrix(U, 1.0)
        for R in np.linspace(1.5, 100.0, energy._MEMO_CAP + 10):
            halfspace_moment_matrix(U, R)
            assert len(energy._memo) <= energy._MEMO_CAP
        assert len(energy._memo) == energy._MEMO_CAP
        assert halfspace_moment_matrix(U, 1.0) is not first        # evicted
        last = halfspace_moment_matrix(U, 100.0)
        assert halfspace_moment_matrix(U, 100.0) is last           # still held


class TestEscobarQuotient:
    def test_flat_scale_invariance(self, flat_model):
        q1 = flat_model.escobar_quotient(1e-3).quotient
        q2 = flat_model.escobar_quotient(1e-2).quotient
        assert abs(q1 - q2) / q1 < 1e-6
        assert flat_model.escobar_quotient(1e-3).deficit == pytest.approx(0.0, abs=1e-14)

    def test_flat_matches_moment_S_star(self, flat_model, constants):
        # independent code path: rectangle-matrix quotient vs moment-table S*(R)
        assert flat_model.flat_escobar() == pytest.approx(constants[5].S_star_R, rel=1e-10)

    def test_amplitude_invariance(self, h_model, halfspace_profiles):
        U = halfspace_profiles[5]
        jet = h_model.jet
        big = dataclasses.replace(U, amplitude=3.7 * U.amplitude, meta={})
        m2 = HalfspaceEnergyModel(jet, big, 40.0)
        q1 = h_model.escobar_quotient(1e-2).quotient
        q2 = m2.escobar_quotient(1e-2).quotient
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_h_only_slope_matches_rho(self, h_model, constants):
        y = np.array([h_model.escobar_quotient(e).deficit for e in EPS6])
        y /= h_model.flat_escobar()
        c1 = fit_power_series(EPS6, y, (1, 2, 3))[0]
        assert c1 == pytest.approx(constants[5].rho_conf, rel=0.02)
        # and the fit agrees with the exact jet series at much tighter tolerance
        assert c1 == pytest.approx(h_model.escobar_series()[0], rel=1e-5)

    def test_trace_mass_has_no_linear_term(self, h_model):
        t0 = h_model.M.trq[(0, 0)]
        dev = np.array([h_model.traceq(e) - t0 for e in EPS6])
        c = fit_power_series(EPS6, dev, (1, 2))
        assert abs(c[0]) <= 1e-12 * t0

    def test_isotropy_cancellation_order1(self, halfspace_profiles):
        # pure traceless II at first order: no linear deficit coefficient
        data = geometry_catalog("anisotropic-cylinder-like", 5).data
        jet = fermi_jet(data, order=1, chart_radius=2.0)
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        y = np.array([m.escobar_quotient(e).deficit for e in EPS6])
        c = fit_power_series(EPS6, y / m.flat_escobar(), (1, 2))
        assert abs(c[0]) < 1e-10

    def test_chart_overflow(self, halfspace_profiles):
        with pytest.raises(ChartOverflowError):
            BubbleParams(halfspace_profiles[5], eps=1e-2, R=40.0,
                         chart_radius=0.5)
        jet = fermi_jet(BoundaryPointData(n=5), order=2, chart_radius=0.15)
        ok = BubbleParams(halfspace_profiles[5], eps=1e-2, R=10.0,
                          chart_radius=1.0)
        with pytest.raises(ChartOverflowError):
            escobar_quotient(jet, ok)  # jet chart tighter than the bubble

    def test_breakdown_terms(self, h_model):
        r = h_model.escobar_quotient(1e-2)
        assert set(r.breakdown) >= {"gradient", "scal", "H_boundary", "trace_mass"}
        assert r.quotient == pytest.approx(r.reference + r.deficit, rel=1e-12)
        assert r.quotient == pytest.approx(r.numerator / r.denominator, rel=1e-12)

    def test_jet_positivity_warning(self, halfspace_profiles):
        ball = geometry_catalog("euclidean-ball", 5).data   # H = 4
        jet = fermi_jet(ball, order=1, chart_radius=10.0)   # 1 - H t goes negative
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        with pytest.warns(UserWarning, match="non-positive"):
            m.escobar_quotient(1e-2)   # depth 0.8, H t > 1

    def test_jet_positivity_warning_second_order(self, halfspace_profiles):
        # H = 0: only the kappa_vol t^2 term, -(Ric_nn / 2) t^2, turns the
        # axis volume element negative (1 - 5 t^2 < 0 from t = 0.45 on)
        data = geometry_catalog("ricci-only", 5, value=10.0).data
        jet = fermi_jet(data, order=2, chart_radius=10.0)
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.escobar_quotient(1e-3)   # depth 0.08: positive throughout
        with pytest.warns(UserWarning, match="non-positive"):
            m.escobar_quotient(1e-2)   # depth 0.8
        # the check reads the same axis values as the jet's own volume element
        t = np.linspace(0.0, 0.8, 9)
        axis = [jet.sqrt_det(np.zeros(4), s) for s in t]
        assert np.array_equal(1.0 - jet.H * t + jet.kappa_vol * t ** 2, axis)

    def test_jet_positivity_warning_off_axis(self, halfspace_profiles):
        # boundary-scal-only: sqrt|g| = 1 on the axis, but the -Ric_bar/6 term
        # makes it negative at |y'| = 0.8 inside the support at eps = 1e-2
        data = geometry_catalog("boundary-scal-only", 5, value=100.0).data
        jet = fermi_jet(data, order=2, chart_radius=10.0)
        assert all(jet.sqrt_det(np.zeros(4), s) > 0 for s in np.linspace(0.0, 0.8, 9))
        assert jet.sqrt_det((0.8, 0.0, 0.0, 0.0), 0.0) < 0
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        with pytest.warns(UserWarning, match="non-positive"):
            m.escobar_quotient(1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.escobar_quotient(1e-3)   # |y'| <= 0.08: 1 - 25 * 0.08^2 / 6 > 0


class TestPlainTrace:
    def test_flat_value_scale_free(self, flat_model):
        # scale-free up to the deliberately included mean-zero gauge term,
        # which is O(eps^((n+2)/2) * eps^((n-2)/2)) and eps-dependent
        q1 = flat_model.plain_trace_quotient(1e-3).quotient
        q2 = flat_model.plain_trace_quotient(1e-2).quotient
        assert abs(q1 - q2) / q1 < 1e-5

    def test_slope_is_half_theta(self, h_model, constants):
        y = np.array([h_model.plain_trace_quotient(e).deficit for e in EPS6])
        y /= h_model.flat_plain_trace()
        c1 = fit_power_series(EPS6, y, (1, 2, 3))[0]
        assert c1 == pytest.approx(constants[5].plain_rho, rel=0.02)
        assert c1 > 0  # the quotient increases with positive mean curvature

    def test_gauge_correction_below_fitted_orders(self, h_model):
        r = h_model.plain_trace_quotient(1e-2)
        # far below the fitted linear deficit at the same scale
        assert abs(r.breakdown["gauge_correction"]) < 1e-3 * abs(r.deficit)


class TestGNQuotients:
    def test_boundary_flat_matches_profile_quotient(self, gn23):
        Q, Qp, co = gn23
        jet = fermi_jet(BoundaryPointData(n=2), order=2, chart_radius=2.0)
        m = HalfspaceEnergyModel(jet, Qp, 20.0, p_exponent=3.0)
        assert m.flat_gn() == pytest.approx(co.W_flat_halfspace, rel=1e-9)
        # cutoff barely moves the quotient for exponentially decaying profiles
        assert m.flat_gn() == pytest.approx(Qp.achieved_quotient, rel=1e-6)

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_boundary_slope(self, case, request):
        Q, Qp, co = request.getfixturevalue(case)
        n = co.n
        data = geometry_catalog("euclidean-ball", n).data if n == 2 else \
            geometry_catalog("h-only", n, H=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=3.0)
        m = HalfspaceEnergyModel(jet, Qp, 20.0, p_exponent=co.p)
        rel = np.array([m.gn_quotient(e).breakdown["rel_change"] for e in EPS6])
        c1 = fit_power_series(EPS6, rel, (1, 2, 3))[0]
        assert c1 == pytest.approx(co.kappa_bdy * data.H, rel=0.02)

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_interior_quadratic_coefficient(self, case, request):
        Q, Qp, co = request.getfixturevalue(case)
        n = co.n
        scal = 2.0 if n == 2 else 6.0  # round-sphere values
        data = InteriorPointData(n=n, scal=scal)
        m = InteriorEnergyModel(data, Q, 20.0)
        defs = np.array([m.gn_quotient(e).deficit for e in EPS6])
        c2 = fit_power_series(EPS6, defs, (2, 3))[0]
        assert c2 == pytest.approx(co.kappa_int * scal, rel=0.05)

    def test_interior_flat_exact(self, gn23):
        Q, _, co = gn23
        m = InteriorEnergyModel(InteriorPointData(n=2, scal=0.0), Q, 20.0)
        r = m.gn_quotient(1e-2)
        assert r.deficit == pytest.approx(0.0, abs=1e-14)
        assert r.quotient == pytest.approx(co.C_star, rel=1e-5)


class TestDeficitSeries:
    def test_synthetic_injection_exact(self):
        sweep = deficit_series(None, None, 0.0, EPS6,
                               synthetic={"coeffs": [2.0, -1.0, 0.5], "S": 3.0})
        expect = 3.0 * (2.0 * EPS6 - EPS6 ** 2 + 0.5 * EPS6 ** 3)
        assert np.allclose(sweep.deficits, expect, rtol=0, atol=0)
        assert sweep.source == "synthetic"

    def test_geometry_sweep_carries_series(self, halfspace_profiles):
        data = geometry_catalog("h-only", 5, H=0.5).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        sweep = deficit_series(jet, halfspace_profiles[5], 30.0, EPS6[:3])
        assert sweep.series is not None
        # deficits reproduced by the series to high relative accuracy
        model_vals = sum(c * EPS6[:3] ** (k + 1) for k, c in enumerate(sweep.series))
        assert np.allclose(model_vals * sweep.reference, sweep.deficits, rtol=1e-4)

    def test_deficit_at_lookup(self):
        sweep = deficit_series(None, None, 0.0, EPS6,
                               synthetic={"coeffs": [1.0], "S": 1.0})
        assert sweep.deficit_at(EPS6[2]) == pytest.approx(EPS6[2])
        with pytest.raises(KeyError):
            sweep.deficit_at(1.7e-5)


class TestChannelFit:
    def test_kappa3_matches_moments(self, channel_fit_n5):
        assert channel_fit_n5.kappa3_rel_err < 0.05

    def test_fit_residuals_at_noise(self, channel_fit_n5):
        assert max(channel_fit_n5.fit_errors.values()) < 1e-10

    def test_flat_geometry_below_noise(self, channel_fit_n5):
        assert abs(channel_fit_n5.details["flat"]["c2"]) < 1e-10

    def test_measured_channel_values(self, channel_fit_n5):
        # exact Beta-function predictions for the probe channels at R = infinity:
        # kappa1 -> -(n-2) g2 / (2(n-1)) = -3/8, kappa2 -> -3/16 (see ledger)
        assert channel_fit_n5.kappa1 == pytest.approx(-0.375, rel=0.02)
        assert channel_fit_n5.kappa2 == pytest.approx(-0.1875, rel=0.02)

    def test_requires_n_at_least_5(self, halfspace_profiles, constants):
        with pytest.raises(ValueError):
            channel_fit_second_order(4, halfspace_profiles[4], constants[4])


class TestDiagonalRegime:
    def test_diagonal_sweep_slope(self, halfspace_profiles, constants):
        # each level carries its own cutoff R(eps) with eps R(eps) -> 0;
        # the fitted slope still lands on the first-order coefficient
        data = geometry_catalog("h-only", 5, H=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=3.0)
        eps = 1e-2 * 0.5 ** np.arange(4)
        sweep = deficit_series(jet, halfspace_profiles[5], 30.0, eps,
                               functional="escobar", diagonal=True)
        y = sweep.deficits / np.array([r.reference for r in sweep.results])
        c1 = fit_power_series(eps, y, (1, 2))[0]
        assert c1 == pytest.approx(constants[5].rho_conf, rel=0.02)
        assert sweep.source == "geometry-diagonal"
        # cutoffs actually grow as eps shrinks
        Rs = [r.R for r in sweep.results]
        assert Rs == sorted(Rs)
        assert np.all(eps * 2 * np.array(Rs) <= eps[0] * 2 * Rs[0] + 1e-12)

    def test_diagonal_only_for_escobar(self, halfspace_profiles):
        with pytest.raises(ValueError, match="diagonal"):
            deficit_series(None, halfspace_profiles[5], 30.0, [1e-3],
                           functional="plain-trace", diagonal=True)
