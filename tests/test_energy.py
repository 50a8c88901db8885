import dataclasses
import math
import warnings
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblelab import energy
from bubblelab.geometry import (BoundaryPointData, InteriorPointData, fermi_jet,
                                geometry_catalog)
from bubblelab.energy import (
    HalfspaceEnergyModel, InteriorEnergyModel, QuadratureNonConvergence,
    deficit_series, channel_fit_second_order, empirical_slope, fit_power_series,
    sphere_average, halfspace_moment_matrix, _ser_mul, _ser_pow,
)
from bubblelab.moments import escobar_constants, weighted_moments, weinstein_quotient
from bubblelab.profiles import (RadialProfile, aubin_talenti, beta_function, cutoff,
                                escobar_halfspace_optimizer, gn_exponents, sphere_area)
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
        np.testing.assert_allclose(_ser_mul(a, _ser_pow(b, -alpha)), ref, rtol=1e-9,
                                   atol=1e-9 * (1.0 + np.abs(a).max()) * b0 ** -alpha)

    # the exponents the quotient series raise their normalised series to
    _ALPHAS = ([-2.0 / (2.0 * (n - 1) / (n - 2)) for n in (5, 6, 7)]
               + [-(n - 1.0) / (n - 2.0) for n in (5, 6, 7)]
               + [-gn_exponents(n, p)[1] / 2.0 for n, p in ((2, 3.0), (3, 3.0), (3, 4.2))])

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-1, 3), Fraction(-4, 3),
                                       Fraction(5, 2), Fraction(-12, 5)])
    def test_ser_pow_exact_binomial(self, alpha):
        # (1 + x)^alpha: the binomial coefficients, exact in rationals
        ref, c = [], Fraction(1)
        for k in range(8):
            ref.append(c)
            c = c * (alpha - k) / (k + 1)
        got = _ser_pow(np.array([1.0, 1.0] + [0.0] * 6), float(alpha))
        np.testing.assert_allclose(got, [float(r) for r in ref], rtol=1e-15, atol=0.0)

    def test_ser_mul_matches_the_numpy_scalar_loop(self):
        # the same products and sums in the same order as on numpy scalars
        def numpy_loop(a, b):
            out = np.zeros(len(a))
            for i in range(len(a)):
                for j in range(len(a) - i):
                    out[i + j] += a[i] * b[j]
            return out

        rng = np.random.default_rng(21)
        for K in (1, 2, 3, 5, 8):
            for _ in range(400):
                a, b = rng.normal(size=(2, K)) * 10.0 ** rng.uniform(-3, 3, size=(2, K))
                assert _ser_mul(a, b).tobytes() == numpy_loop(a, b).tobytes()

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_ser_pow_exact_five_terms(self, alpha):
        # a0^alpha (1 + u)^alpha = a0^alpha sum_m binom(alpha, m) u^m with
        # u = a/a0 - 1, in exact rationals (alpha is the float's exact value);
        # relative to the largest coefficient, since the x^4 one cancels to
        # ~1e-3 of the others at the first three exponents
        a = [1.75, -0.5, 0.375, 0.25, -0.125]
        A, u = Fraction(alpha), [Fraction(0)] + [Fraction(x) / Fraction(a[0]) for x in a[1:]]
        ref, power, binom = [Fraction(0)] * 5, [Fraction(1)] + [Fraction(0)] * 4, Fraction(1)
        for m in range(5):
            ref = [r + binom * p for r, p in zip(ref, power)]
            power = [sum((power[i] * u[k - i] for i in range(k + 1)), Fraction(0))
                     for k in range(5)]
            binom = binom * (A - m) / (m + 1)
        want = np.array([float(r) for r in ref]) * a[0] ** alpha
        got = _ser_pow(np.array(a), alpha)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_series_move_against_log_exp(self, monkeypatch, halfspace_profiles, gn23, gn33):
        # the recurrence against the log/exp-series composition it replaces,
        # on the normalised series every quotient series raises to a power
        def log_exp_pow(a, alpha):
            K, a0 = len(a), a[0]
            x = a / a0
            x[0] = 0.0
            lg, term = np.zeros(K), x.copy()
            for k in range(1, K):
                lg += ((-1) ** (k + 1) / k) * term
                term = _ser_mul(term, x)
            out, term = np.zeros(K), np.zeros(K)
            out[0] = term[0] = 1.0
            for k in range(1, K):
                term = _ser_mul(term, alpha * lg) / k
                out += term
            return out * a0 ** alpha

        models = []
        for n in (5, 6, 7):
            for name in ("euclidean-ball", "umbilic-sphere-cap", "h-only", "ricci-only",
                         "boundary-scal-only", "anisotropic-cylinder-like"):
                jet = fermi_jet(geometry_catalog(name, n).data, order=2)
                models.append(HalfspaceEnergyModel(jet, halfspace_profiles[n], 20.0))
        series = [(m, f) for f in ("escobar", "plain-trace") for m in models]
        for Q, Qp, co in (gn23, gn33):
            jet = fermi_jet(geometry_catalog("euclidean-ball", co.n).data, order=2)
            series.append((HalfspaceEnergyModel(jet, Qp, 20.0), "gn-boundary"))
            series.append((InteriorEnergyModel(InteriorPointData(n=co.n, scal=1.3), Q, 20.0),
                           "gn-interior"))
        now = [m.series(f) for m, f in series]
        monkeypatch.setattr(energy, "_ser_pow", log_exp_pow)
        for (m, f), got in zip(series, now):
            want = m.series(f)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (got, want)


_FIELDS = ("tan", "nor", "w2", "w1", "pp", "tr2", "trq", "trq1")
_STD_SPEC, _HIGH_SPEC = QuadratureSpec(order=20, subdiv=1), QuadratureSpec(order=28, subdiv=2)
# (id, profile, R, spec, slot): the profile is an Escobar n, a GN fixture
# name with the slot of its ground state (0) or half-space near-optimizer
# (1), or "at" for an Aubin-Talenti bubble given the exponent p = 2
_ENGINE_CASES = (
    [(f"escobar-n{n}-R{R:g}", n, R, _STD_SPEC, None)
     for n in (4, 5, 6, 7) for R in (20.0, 135.0, 707.0)]
    + [("escobar-n5-R20-high", 5, 20.0, _HIGH_SPEC, None),
       ("gn23-halfspace", "gn23", 20.0, _STD_SPEC, 1),
       ("gn33-halfspace", "gn33", 20.0, _STD_SPEC, 1),
       ("gn23-ground", "gn23", 20.0, _STD_SPEC, 0),
       ("gn33-ground", "gn33", 20.0, _STD_SPEC, 0),
       ("aubin-talenti-n4", "at", 30.0, _STD_SPEC, None)])


def _engine_case(case, request):
    """(id, profile, R, spec)."""
    name, which, R, spec, slot = case
    if which == "at":
        prof = dataclasses.replace(aubin_talenti(4, lam=0.7), p=2.0)
    elif isinstance(which, int):
        prof = request.getfixturevalue("halfspace_profiles")[which]
    else:
        prof = request.getfixturevalue(which)[slot]
    return name, prof, R, spec


def _traces(profile, R, r, Vr):
    """The boundary-trace moments on the ray t = 0 with r-weights Vr."""
    if profile.kind not in energy._HALFSPACE_KINDS or profile.n < 3:
        return {k: np.zeros((5, 1)) for k in ("tr2", "trq", "trq1")}
    q = 2.0 * (profile.n - 1) / (profile.n - 2)
    ub = cutoff(R)(r) * profile.value(r, 0.0)
    traces = {"tr2": ub ** 2, "trq": np.abs(ub) ** q, "trq1": np.abs(ub) ** (q - 1.0)}
    return {k: np.einsum("ia,a->i", Vr, d)[:, None] for k, d in traces.items()}


def _two_call_matrix(profile, R, spec):
    """The polar moment matrix as first written: meshgrid (rho, phi)
    coordinates, separate value/grad and chi/chi' calls, every field on the
    whole quarter disc (the ray phi = 0 for a radial profile)."""
    n, p = profile.n, profile.p
    halfspace = profile.kind in energy._HALFSPACE_KINDS
    om = sphere_area(n - 2 if halfspace else n - 1)
    chi = cutoff(R)

    def run(sp):
        rho, wrho, phi, wphi = energy._polar_grid(profile, R, sp)
        P, A = np.meshgrid(rho, phi, indexing="ij")
        C, S = np.cos(A), np.sin(A)
        if halfspace:
            u = profile.value(P * C, P * S)
            ur, ut = profile.grad(P * C, P * S)
        else:
            u, ur, ut = profile.value(P), profile.grad(P), 0.0
        c, dc = chi(P), chi.deriv(P)
        w = c * u
        fields = {"tan": (c * ur + u * dc * C) ** 2, "nor": (c * ut + u * dc * S) ** 2,
                  "w2": w ** 2, "w1": w}
        if p is not None:
            fields["pp"] = np.abs(w) ** (p + 1.0)
        Vrho = rho ** np.arange(9)[:, None] * (wrho * om * rho ** (n - 1))
        i, j = np.arange(5)[:, None], np.arange(5)[None, :]
        table = np.cos(phi) ** (n - 2 + i[:, :, None]) * np.sin(phi) ** j[:, :, None] * wphi
        out = {k: np.einsum("ijb,ijb->ij", table, np.einsum("ka,ab->kb", Vrho, F)[i + j])
               for k, F in fields.items()}
        out.update(_traces(profile, R, rho, rho ** energy._POWERS * (wrho * om * rho ** (n - 2))))
        return out

    coarse, fine = run(spec), run(spec.refined())
    delta = {k: fine[k] - coarse[k] for k in fine}
    err = float(np.max([np.max(np.abs(delta[k]) / np.maximum(1.0, np.abs(fine[k])))
                        for k in fine]))
    return fine, delta, err


def _tensor_matrix(profile, R, sp):
    """An independent oracle: the moments at one resolution on the tensor
    (r, t) grid [0, 2R] x [0, 2R + shift], the engine's algorithm before its
    grid turned polar."""
    n, p = profile.n, profile.p
    halfspace = profile.kind in energy._HALFSPACE_KINDS
    dim = n - 1 if halfspace else n
    om = sphere_area(dim - 1)
    r, wr = grid_1d(0.0, 2.0 * R, sp.order, sp.subdiv, extra=(R, 1.5 * R))
    if halfspace:
        t, wt = grid_1d(0.0, 2.0 * R + profile.shift, sp.order, sp.subdiv, extra=(R, 1.5 * R))
        Rg, Tg = np.meshgrid(r, t, indexing="ij")
        u = profile.value(Rg, Tg)
        ur, ut = profile.grad(Rg, Tg)
    else:
        t, wt = np.zeros(1), np.ones(1)
        Rg, Tg = r[:, None], np.zeros((r.size, 1))
        u, ur, ut = profile.value(Rg), profile.grad(Rg), 0.0
    chi = cutoff(R)
    rho = np.sqrt(Rg ** 2 + Tg ** 2)
    c, dc = chi(rho), chi.deriv(rho)
    w = c * u
    fields = {"tan": (c * ur + u * dc * (Rg / rho)) ** 2,
              "nor": (c * ut + u * dc * (Tg / rho)) ** 2, "w2": w ** 2, "w1": w}
    if p is not None:
        fields["pp"] = np.abs(w) ** (p + 1.0)
    Vr = r ** energy._POWERS * (wr * om * r ** (dim - 1))
    Vt = t ** energy._POWERS * wt
    out = {k: np.einsum("jb,ib->ij", Vt, np.einsum("ia,ab->ib", Vr, F)) for k, F in fields.items()}
    out.update(_traces(profile, R, r, Vr))
    return out


class TestMomentEngine:
    def test_matches_per_monomial_quadrature(self, halfspace_profiles, gn23):
        # reference: each monomial integrated on its own, on the fine polar
        # grid, where dr dt = rho drho dphi
        R, spec = 20.0, QuadratureSpec(order=12)
        fine = spec.refined()
        U = halfspace_profiles[5]
        rho, wrho, phi, wphi = energy._polar_grid(U, R, fine)
        P, A = np.meshgrid(rho, phi, indexing="ij")
        Rg, Tg = P * np.cos(A), P * np.sin(A)
        w = cutoff(R)(P) * U.value(Rg, Tg)
        base = np.outer(wrho, wphi) * w * sphere_area(3) * Rg ** 3 * P
        M = halfspace_moment_matrix(U, R, spec)
        for i in range(5):
            for j in range(5):
                ref = np.sum(base * Rg ** i * Tg ** j)
                assert M.w1[i, j] == pytest.approx(ref, rel=1e-12)
        Q = gn23[0]
        r, wr = grid_1d(0.0, 2 * R, fine.order, fine.subdiv, extra=(R, 1.5 * R))
        wq = cutoff(R)(r) * Q.value(r)
        Mq = halfspace_moment_matrix(Q, R, spec)
        for i in range(5):
            ref = np.sum(wr * wq ** 2 * sphere_area(1) * r * r ** i)
            assert Mq.w2[i, 0] == pytest.approx(ref, rel=1e-12)
        assert not Mq.nor.any() and not Mq.w2[:, 1:].any()

    def test_grid_is_the_quarter_disc(self, halfspace_profiles, gn23):
        # rho on today's dyadic panels up to 2R, beyond which chi_R vanishes;
        # phi on two panels, graded toward phi = 0 and the core for the
        # near-optimizer; the finer resolution doubles every panel
        R, spec = 20.0, QuadratureSpec()
        quarter = 0.25 * math.pi
        for prof, rho_extra, phi_extra in (
                (halfspace_profiles[5], (), ()),
                (gn23[1], (1.0, 3.0), (quarter / 2, quarter / 4, quarter / 8, 1.5 * quarter))):
            for sp in (spec, spec.refined()):
                rho, wrho, phi, wphi = energy._polar_grid(prof, R, sp)
                want = grid_1d(0.0, 2 * R, sp.order, sp.subdiv, extra=(R, 1.5 * R) + rho_extra)
                assert rho.tobytes() == want[0].tobytes() and wrho.tobytes() == want[1].tobytes()
                want = grid_1d(0.0, 2 * quarter, sp.order, sp.subdiv, base=quarter, extra=phi_extra)
                assert phi.tobytes() == want[0].tobytes() and wphi.tobytes() == want[1].tobytes()
            assert phi.size == 2 * sp.order * (2 + len(phi_extra))
        rho, _, phi, wphi = energy._polar_grid(gn23[0], R, spec)
        assert (phi.tolist(), wphi.tolist()) == ([0.0], [1.0])
        assert rho.max() < 2 * R

    def test_underresolved_spec_raises(self, halfspace_profiles, gn23):
        spec = QuadratureSpec(order=4)
        with pytest.raises(QuadratureNonConvergence):
            weighted_moments(halfspace_profiles[5], 40.0, spec)
        with pytest.raises(QuadratureNonConvergence):
            InteriorEnergyModel(InteriorPointData(n=2, scal=0.0), gn23[0], 20.0, spec)

    @pytest.mark.parametrize("poisoned", ["bulk", "trace"])
    def test_nan_in_any_field_raises(self, poisoned):
        # the bulk fields come from one 2-D evaluation, the traces from a 1-D one
        class Poisoned(RadialProfile):
            def _fields(self, r, t=None, derivs=True):
                u, ur, ut = super()._fields(r, t, derivs)
                return (u * np.nan if (np.ndim(r) == 2) == (poisoned == "bulk") else u), ur, ut

        with pytest.raises(QuadratureNonConvergence):
            halfspace_moment_matrix(Poisoned(kind="escobar-halfspace", n=5, amplitude=0.5), 20.0)

    @pytest.mark.parametrize("case", _ENGINE_CASES, ids=lambda c: c[0])
    def test_bit_identical_to_two_call_formula(self, case, request):
        _, prof, R, spec = _engine_case(case, request)
        M = energy._build_moment_matrix(prof, R, spec)
        fine, delta, err = _two_call_matrix(prof, R, spec)
        for name in _FIELDS:
            got, want = getattr(M, name), fine.get(name)
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), name
        assert set(M.delta) == set(delta)
        for name in delta:
            assert M.delta[name].tobytes() == delta[name].tobytes(), name
        assert M.err == err

    @pytest.mark.parametrize("case", _ENGINE_CASES, ids=lambda c: c[0])
    def test_fused_evaluations_match_public_ones(self, case, request):
        # broadcast (r, t) axes against the full meshgrid, bit for bit
        _, prof, R, spec = _engine_case(case, request)
        x = np.linspace(0.0, 2.0 * R + prof.shift, 97)
        halfspace = prof.kind in energy._HALFSPACE_KINDS
        t = x if halfspace else np.zeros(1)
        Rg, Tg = np.meshgrid(x, t, indexing="ij")
        u, ur, ut = prof._fields(x[:, None], t[None, :])
        if halfspace:
            grad = prof.grad(Rg, Tg)
            pairs = [(u, prof.value(Rg, Tg)), (ur, grad[0]), (ut, grad[1])]
        else:
            assert ut is None
            pairs = [(u, prof.value(Rg)), (ur, prof.grad(Rg))]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # chi_R and chi_R' on the engine's 1-D rho nodes, from one pass
        chi = cutoff(R)
        rho = energy._polar_grid(prof, R, spec)[0]
        c, dc = chi._glue(rho)
        assert c.tobytes() == chi(rho).tobytes() and dc.tobytes() == chi.deriv(rho).tobytes()
        band = (rho > R) & (rho < 2.0 * R)
        assert band.any() and not dc[~band].any() and (dc[band] <= 0.0).all()
        assert (c[rho <= R] == 1.0).all() and (c[rho >= 2.0 * R] == 0.0).all()
        s = rho[band] / R - 1.0
        a, b = np.exp(-1.0 / s), np.exp(-1.0 / (1.0 - s))
        assert c[band].tobytes() == (b / (a + b)).tobytes()

    @pytest.mark.parametrize("which", ["escobar", "gn-halfspace", "gn-ground-state"])
    def test_each_grid_point_once_per_resolution(self, which, monkeypatch,
                                                 halfspace_profiles, gn23):
        # each resolution's bulk calls tile its (rho, phi) grid by phi columns,
        # the cutoff runs once on its rho nodes, and the spline locates each
        # point once
        from bubblelab import profiles
        prof = {"escobar": halfspace_profiles[5], "gn-halfspace": gn23[1],
                "gn-ground-state": gn23[0]}[which]
        fields, glue, locate = (profiles.RadialProfile._fields, profiles.Cutoff._glue,
                                profiles._Bernstein.locate)
        blocks, glued, located = [], [], []

        def counting_fields(self, r, t=None, derivs=True):
            if np.ndim(r) != 2:
                return fields(self, r, t, derivs)
            blocks.append({"r": np.copy(r), "t": np.copy(t), "located": 0})
            located.clear()
            out = fields(self, r, t, derivs)
            blocks[-1]["located"] = sum(located)
            return out

        def counting_glue(self, rho):
            glued.append(np.copy(rho))
            return glue(self, rho)

        def counting_locate(self, x):
            located.append(np.size(x))
            return locate(self, x)

        monkeypatch.setattr(profiles.RadialProfile, "_fields", counting_fields)
        monkeypatch.setattr(profiles.Cutoff, "_glue", counting_glue)
        monkeypatch.setattr(profiles._Bernstein, "locate", counting_locate)
        R, spec = 20.0, QuadratureSpec()
        energy._build_moment_matrix(prof, R, spec)
        halfspace = prof.kind in energy._HALFSPACE_KINDS
        for sp in (spec, spec.refined()):
            rho, _, phi, _ = energy._polar_grid(prof, R, sp)
            mine = [b for b in blocks if b["r"].shape[0] == rho.size]
            r, t = np.hstack([b["r"] for b in mine]), np.hstack([b["t"] for b in mine])
            assert r.tobytes() == (rho[:, None] * np.cos(phi)).tobytes()
            assert t.tobytes() == (rho[:, None] * np.sin(phi)).tobytes()
            assert [g.tobytes() for g in glued].count(rho.tobytes()) == 1
            if which == "escobar":
                want = 0
            else:   # the spline covers the points within its grid; the tail the rest
                rad = np.sqrt(r ** 2 + (t - prof.shift) ** 2)
                want = np.count_nonzero(rad <= prof.grid[-1])
                assert 0 < want
            assert sum(b["located"] for b in mine) == want
        assert len(glued) == 2
        # the fine grid (R = 20: 360 x 80 points) is split into several blocks
        assert len(blocks) > 2 or not halfspace

    @pytest.mark.parametrize("budget", ["two", "merge", "partial", "whole"])
    @pytest.mark.parametrize("case", [c for c in _ENGINE_CASES
                                      if c[0] in ("escobar-n5-R20", "escobar-n7-R135",
                                                  "escobar-n5-R20-high", "gn23-halfspace",
                                                  "aubin-talenti-n4")],
                             ids=lambda c: c[0])
    def test_bit_identical_at_block_edges(self, case, budget, request, monkeypatch):
        # the block width changes no bit: two columns a block (the narrowest
        # the engine forms), a last column that joins the block before it, a
        # partial last block, and one block for the whole grid
        _, prof, R, spec = _engine_case(case, request)
        rho, _, phi, _ = energy._polar_grid(prof, R, spec)
        monkeypatch.setattr(energy, "_BLOCK", {"two": 1, "merge": (phi.size - 1) * rho.size,
                                               "partial": 7 * rho.size,
                                               "whole": 10 ** 9}[budget])
        widths, fields = [], RadialProfile._fields

        def spying(self, r, t=None, derivs=True):
            if np.ndim(r) == 2:
                widths.append(np.shape(t)[1])
            return fields(self, r, t, derivs)

        monkeypatch.setattr(RadialProfile, "_fields", spying)
        M = energy._build_moment_matrix(prof, R, spec)
        monkeypatch.setattr(RadialProfile, "_fields", fields)
        # einsum sums a lone contiguous column in another order, so a block
        # holds two columns or more unless the grid has one
        assert min(widths) >= 2 or widths == [1, 1]
        fine, delta, err = _two_call_matrix(prof, R, spec)
        for name in _FIELDS:
            got, want = getattr(M, name), fine.get(name)
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), name
        for name in delta:
            assert M.delta[name].tobytes() == delta[name].tobytes(), name
        assert M.err == err

    @pytest.mark.parametrize("resolution", ["coarse", "fine"])
    def test_nan_in_last_partial_block_raises(self, resolution, monkeypatch):
        # a nan in the last, partial column block of one resolution still
        # reaches the two-resolution guard
        R, spec = 20.0, QuadratureSpec()
        sp = spec if resolution == "coarse" else spec.refined()
        rho, _, phi, _ = energy._polar_grid(RadialProfile(kind="escobar-halfspace", n=5,
                                                          amplitude=0.5), R, sp)
        last = (rho * np.sin(phi[-1])).tobytes()
        width = 7
        assert phi.size % width > 1       # a partial last block
        monkeypatch.setattr(energy, "_BLOCK", width * rho.size)
        poisoned = []

        class Poisoned(RadialProfile):
            def _fields(self, r_, t=None, derivs=True):
                u, ur, ut = super()._fields(r_, t, derivs)
                if np.ndim(r_) == 2 and r_.shape[0] == rho.size and t[:, -1].tobytes() == last:
                    poisoned.append(t.shape[1])
                    u = u * np.nan
                return u, ur, ut

        with pytest.raises(QuadratureNonConvergence):
            energy._build_moment_matrix(Poisoned(kind="escobar-halfspace", n=5, amplitude=0.5),
                                        R, spec)
        assert poisoned == [phi.size % width]

    def test_build_peak_memory_is_a_few_blocks(self, halfspace_profiles):
        # numpy reports its buffers to tracemalloc; at R = 500 one fine-grid
        # field is 520 x 160 float64 = 0.7 MB, and the build holds a few
        # column blocks of fields, never a dozen full-grid arrays
        import tracemalloc
        U = halfspace_profiles[5]
        tracemalloc.start()
        try:
            energy._build_moment_matrix(U, 500.0, QuadratureSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak


# the accuracy oracle's cases: Escobar n = 4..8 at four cutoffs, and the GN
# ground states and near-optimizers of the fixtures
_ACCURACY_CASES = (
    [(f"escobar-n{n}-R{R:g}", n, R, _STD_SPEC, None)
     for n in (4, 5, 6, 7, 8) for R in (1.5, 20.0, 100.0, 500.0)]
    + [(f"{gn}-{kind}", gn, 20.0, _STD_SPEC, slot)
       for gn in ("gn23", "gn33") for kind, slot in (("ground", 0), ("halfspace", 1))])


class TestPolarAccuracy:
    @pytest.mark.parametrize("case", _ACCURACY_CASES, ids=lambda c: c[0])
    def test_fine_pass_matches_the_tensor_grid(self, case, request):
        # the polar fine pass against the tensor (r, t) grid's fine pass, an
        # algorithm of its own: every entry within 1e-11 of max(1, |v|)
        _, prof, R, spec = _engine_case(case, request)
        M = halfspace_moment_matrix(prof, R, spec)
        ref = _tensor_matrix(prof, R, spec.refined())
        for name in _FIELDS:
            got, want = getattr(M, name), ref.get(name)
            if want is None:
                assert got is None
                continue
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11, name

    @pytest.mark.parametrize("R", [1.3, 2.7])
    def test_near_optimizer_converges_with_its_core_in_the_glue_band(self, R, gn23):
        # the (2, 3) near-optimizer's core, at depth 2, lies in the band
        # R < rho < 2R where chi_R turns: the tensor grid's resolutions
        # differed by 1.7e-4 (R = 1.3) and 1.3e-6 (R = 2.7) here
        M = halfspace_moment_matrix(gn23[1], R)
        assert M.err < 1e-8


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



class TestMatrixMemo:
    def test_repeat_hits_bit_identical(self, builds, halfspace_profiles):
        U = halfspace_profiles[5]
        first = halfspace_moment_matrix(U, 20.0)
        again = halfspace_moment_matrix(U, 20)            # int R: same key
        assert again is first and len(builds) == 1
        fresh = energy._build_moment_matrix(U, 20.0, QuadratureSpec())
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
        # the GN exponent and the depth offset are read off the profile
        variants = [(U, 20.0, QuadratureSpec()),
                    (U, 20.0, QuadratureSpec(order=24)),
                    (dataclasses.replace(U, p=2.0), 20.0, QuadratureSpec()),
                    (dataclasses.replace(U, shift=1.0), 20.0, QuadratureSpec()),
                    (U, 25.0, QuadratureSpec()),
                    (dataclasses.replace(U, amplitude=2.0 * U.amplitude), 20.0,
                     QuadratureSpec())]
        mats = [halfspace_moment_matrix(*v) for v in variants]
        assert len(builds) == len(variants) == len(energy._memo)
        assert len({id(M) for M in mats}) == len(variants)
        assert mats[5].w2[0, 0] == pytest.approx(4.0 * mats[0].w2[0, 0], rel=1e-14)

    def test_normalized_and_reloaded_copies_hit(self, builds, halfspace_profiles, gn23):
        U = halfspace_profiles[5]
        M = halfspace_moment_matrix(U, 20.0)
        # a freshly normalized copy has the same amplitude; meta is not read
        fresh = dataclasses.replace(escobar_halfspace_optimizer(5), meta={"note": "ignored"})
        assert halfspace_moment_matrix(fresh, 20.0) is M
        # an amplitude one ulp away is a different key
        halfspace_moment_matrix(dataclasses.replace(U, amplitude=np.nextafter(U.amplitude, 2.0)),
                                20.0)
        assert len(builds) == 2
        Qp = gn23[1]
        B = halfspace_moment_matrix(Qp, 20.0)
        copy = dataclasses.replace(Qp, grid=Qp.grid.copy(), values=Qp.values.copy(),
                                   derivs=Qp.derivs.copy(), derivs2=Qp.derivs2.copy(),
                                   meta={})
        assert halfspace_moment_matrix(copy, 20.0) is B
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


class TestUntruncatedMatrix:
    """The engine at R = inf: closed forms for the half-space optimizer, the
    tail cut for the GN ground state, and no other kind."""

    def test_entries_are_the_limits_of_the_truncated_ones(self):
        # each finite entry's truncation gap falls like R^-k, k the power its
        # integrand decays by; the entries with k <= 0 are exactly the +inf ones
        n, R = 8, 100.0
        U = escobar_halfspace_optimizer(n)
        full, cut = halfspace_moment_matrix(U, math.inf), halfspace_moment_matrix(U, R)
        i, j = np.indices((5, 5))
        decay = {"tan": n - 2 - i - j, "nor": n - 2 - i - j, "w2": n - 4 - i - j,
                 "w1": np.full((5, 5), -1), "tr2": n - 3 - i[:, :1], "trq": n - 1 - i[:, :1],
                 "trq1": 1 - i[:, :1]}
        for name, k in decay.items():
            exact, trunc = getattr(full, name), getattr(cut, name)
            assert (np.isinf(exact) == (k <= 0)).all() and (exact > 0).all(), name
            ok = k > 0
            gap = np.abs(trunc[ok] - exact[ok]) / exact[ok]
            assert (gap <= 20.0 * R ** -k[ok].astype(float) + 1e-13).all(), name
        assert full.R == math.inf and full.err == 0.0 and full.pp is None
        assert all(not d.any() for d in full.delta.values())

    def test_memoized_and_read_only(self, builds, halfspace_profiles):
        M = halfspace_moment_matrix(halfspace_profiles[6], math.inf)
        assert halfspace_moment_matrix(halfspace_profiles[6], math.inf) is M
        assert len(builds) == 1
        with pytest.raises(ValueError):
            M.tan[0, 0] = 1.0

    def test_gn_ground_state_is_the_tail_cut(self, gn23, gn33):
        for Q, _, _ in (gn23, gn33):
            M = halfspace_moment_matrix(Q, math.inf)
            old = energy._build_moment_matrix(Q, Q.tail_r0 + 6.0, QuadratureSpec())
            for name in _FIELDS:
                assert getattr(M, name).tobytes() == getattr(old, name).tobytes(), name
                assert M.delta[name].tobytes() == old.delta[name].tobytes(), name
            assert (M.R, M.err) == (old.R, old.err)

    def test_other_kinds_raise(self, gn23):
        for profile in (gn23[1], aubin_talenti(4)):
            with pytest.raises(ValueError, match="no untruncated"):
                halfspace_moment_matrix(profile, math.inf)

    @pytest.mark.parametrize("n", [5, 6])
    def test_model_has_series_but_no_quotients(self, n):
        # past order n - 3 the custom jet's series reads a divergent moment
        # (from n = 7 on, no order-2 jet reaches one: its fields stop at degree 4)
        model = HalfspaceEnergyModel(fermi_jet(_custom_data(n), order=2),
                                     escobar_halfspace_optimizer(n), math.inf)
        for quotient in (model.escobar_quotient, model.plain_trace_quotient):
            with pytest.raises(ValueError, match="overflows every chart"):
                quotient(1e-3)
        assert np.isfinite(model.series("escobar", order=n - 3)).all()
        with pytest.raises(ValueError, match="series diverges"):
            model.series("escobar", order=n - 2)


# --------------------------------------------------------------------------
# the quotient layer: coefficient arrays against term-by-term sums
# --------------------------------------------------------------------------

# An in-test copy of the per-eps sums over the jet polynomials that the
# quotients were built from. The models evaluate one coefficient array per
# field on a whole eps array, which adds the same terms grouped by degree:
# values and deficits agree to rounding, the series (the same sums in the
# same order) bit for bit.

def _sum_eval(poly, matrix, eps):
    return sum(c * matrix[key] * eps ** (key[0] + key[1]) for key, c in poly.items())


def _sum_delta(poly, matrix, eps):
    return sum(c * matrix[key] * eps ** (key[0] + key[1])
               for key, c in poly.items() if key[0] + key[1] > 0)


def _sum_series(poly, matrix, order):
    out = np.zeros(order + 1)
    for (i, j), c in poly.items():
        if i + j <= order:
            out[i + j] += c * matrix[(i, j)]
    return out


def _sum_escobar(jet, P, M, eps):
    P_tan, P_sca, P_bdy = P
    n = M.n
    q = 2.0 * (n - 1) / (n - 2)
    scal = jet.data.scal_ambient if jet.order >= 2 else 0.0
    terms = {"gradient": _sum_eval(P_tan, M.tan, eps) + _sum_eval(P_sca, M.nor, eps),
             "scal": (n - 2) / (4.0 * (n - 1)) * scal * eps ** 2 * _sum_eval(P_sca, M.w2, eps),
             "H_boundary": (n - 2) / 2.0 * eps * jet.data.H * _sum_eval(P_bdy, M.tr2, eps)}
    Tq = _sum_eval(P_bdy, M.trq, eps)
    N0, T0 = M.tan[(0, 0)] + M.nor[(0, 0)], M.trq[(0, 0)]
    flat = N0 / T0 ** (2.0 / q)
    dN = (_sum_delta(P_tan, M.tan, eps) + _sum_delta(P_sca, M.nor, eps)
          + terms["scal"] + terms["H_boundary"])
    dT_rel = _sum_delta(P_bdy, M.trq, eps) / T0
    deficit = (dN - N0 * math.expm1((2.0 / q) * math.log1p(dT_rel))) / Tq ** (2.0 / q)
    return {"numerator": sum(terms.values()), "denominator": Tq ** (2.0 / q),
            "quotient": flat + deficit, "reference": flat, "deficit": deficit,
            "breakdown": dict(terms, trace_mass=Tq)}


def _sum_plain_trace(jet, P, M, eps):
    P_tan, P_sca, P_bdy = P
    n = M.n
    q = 2.0 * (n - 1) / (n - 2)
    alpha = q / 2.0
    D = _sum_eval(P_tan, M.tan, eps) + _sum_eval(P_sca, M.nor, eps)
    Tq = _sum_eval(P_bdy, M.trq, eps)
    r0, vol = jet.chart_radius, 0.0
    for (i, j), c in P_sca.items():
        a, b = n - 2 + i, j
        vol += (c * sphere_area(n - 2) * r0 ** (a + b + 2) / (a + b + 2)
                * 0.5 * beta_function((a + 1) / 2, (b + 1) / 2))
    cbar = eps ** ((n + 2) / 2.0) * _sum_eval(P_sca, M.w1, eps) / vol
    gauge = -q * cbar * eps ** ((n - 2) / 2.0) * _sum_eval(P_bdy, M.trq1, eps)
    D0, T0 = M.tan[(0, 0)] + M.nor[(0, 0)], M.trq[(0, 0)]
    flat = T0 / D0 ** ((n - 1.0) / (n - 2.0))
    dT = _sum_delta(P_bdy, M.trq, eps) + gauge
    dD_rel = (_sum_delta(P_tan, M.tan, eps) + _sum_delta(P_sca, M.nor, eps)) / D0
    deficit = (dT - T0 * math.expm1(alpha * math.log1p(dD_rel))) / D ** alpha
    return {"numerator": Tq + gauge, "denominator": D ** alpha,
            "quotient": flat + deficit, "reference": flat, "deficit": deficit,
            "breakdown": {"dirichlet": D, "trace_mass": Tq, "gauge_shift": cbar,
                          "gauge_correction": gauge}}


def _sum_gn(P, M, eps, p):
    P_tan, P_sca, _ = P
    al, be = gn_exponents(M.n, p)
    Ipp, I2 = _sum_eval(P_sca, M.pp, eps), _sum_eval(P_sca, M.w2, eps)
    D = _sum_eval(P_tan, M.tan, eps) + _sum_eval(P_sca, M.nor, eps)
    D0 = M.tan[(0, 0)] + M.nor[(0, 0)]
    flat = M.pp[(0, 0)] / (M.w2[(0, 0)] ** (al / 2.0) * D0 ** (be / 2.0))
    dpp = _sum_delta(P_sca, M.pp, eps) / M.pp[(0, 0)]
    d2 = _sum_delta(P_sca, M.w2, eps) / M.w2[(0, 0)]
    dg = (_sum_delta(P_tan, M.tan, eps) + _sum_delta(P_sca, M.nor, eps)) / D0
    rel = math.expm1(math.log1p(dpp) - 0.5 * al * math.log1p(d2)
                     - 0.5 * be * math.log1p(dg))
    return {"numerator": Ipp, "denominator": I2 ** (al / 2.0) * D ** (be / 2.0),
            "quotient": flat * (1.0 + rel), "reference": flat, "deficit": -rel,
            "breakdown": {"I_pp": Ipp, "I_2": I2, "dirichlet": D, "rel_change": rel}}


def _sum_escobar_series(jet, P, M, order=4):
    P_tan, P_sca, P_bdy = P
    n = M.n
    q = 2.0 * (n - 1) / (n - 2)
    N = _sum_series(P_tan, M.tan, order) + _sum_series(P_sca, M.nor, order)
    scal = jet.data.scal_ambient if jet.order >= 2 else 0.0
    w2 = _sum_series(P_sca, M.w2, order)
    N += (n - 2) / (4.0 * (n - 1)) * scal * np.concatenate([[0.0, 0.0], w2[:-2]])
    t2 = _sum_series(P_bdy, M.tr2, order)
    N += (n - 2) / 2.0 * jet.data.H * np.concatenate([[0.0], t2[:-1]])
    Tq = _sum_series(P_bdy, M.trq, order)
    return _ser_mul(N / N[0], _ser_pow(Tq / Tq[0], -2.0 / q))[1:order + 1]


def _sum_plain_trace_series(P, M, order=3):
    P_tan, P_sca, P_bdy = P
    alpha = (M.n - 1.0) / (M.n - 2.0)
    D = _sum_series(P_tan, M.tan, order) + _sum_series(P_sca, M.nor, order)
    Tq = _sum_series(P_bdy, M.trq, order)
    return _ser_mul(Tq / Tq[0], _ser_pow(D / D[0], -alpha))[1:order + 1]


def _sum_gn_series(P, M, p, order=3):
    P_tan, P_sca, _ = P
    al, be = gn_exponents(M.n, p)
    Ipp, I2 = _sum_series(P_sca, M.pp, order), _sum_series(P_sca, M.w2, order)
    D = _sum_series(P_tan, M.tan, order) + _sum_series(P_sca, M.nor, order)
    return _ser_mul(Ipp / Ipp[0], _ser_mul(_ser_pow(I2 / I2[0], -al / 2.0),
                                           _ser_pow(D / D[0], -be / 2.0)))[1:order + 1]


def _custom_data(n, seed=7):
    """Every field of the reduction nonzero, gradT_H and gradT_II included."""
    m = n - 1
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m))
    G = 0.3 * rng.normal(size=(m, m, m))
    B = rng.normal(size=(m, m))
    return geometry_catalog(
        "custom", n, II=0.2 * (A + A.T), gradT_II=G + G.transpose(0, 2, 1),
        gradT_H=0.4 * rng.normal(size=m), ric_nn=0.7, scal_bdy=-1.3 if m >= 2 else 0.0,
        r_anbn=0.1 * (B + B.T), label="custom").data


# bound on the relative move of a value or deficit from the term-by-term
# sums. Measured over n = 5-7, R = 20 and 40, nine geometries, jet orders 1
# and 2 and 64 random eps in [1e-4, 1.2e-2]: every value and Escobar deficit
# within 7.2e-16; two of 6,912 plain-trace deficits above the bound, at
# 1.07e-15 and 1.09e-15 (a one-ulp regrouping move that the deficit's
# cancellation magnifies about fivefold); the cases below stay within it
_ROUNDING = 1e-15
# the GN relative change, whose logs cancel to about 1/50 of their size, sums
# its changes term by term as the references do: bit for bit
_GN_EXACT = ("deficit", "rel_change")


def _same(result, want, i=(), exact=()):
    """``result`` at its eps index ``i`` against the term-by-term sums: the
    flat value and the ``exact`` keys equal, every other value within
    ``_ROUNDING`` relative."""
    def close(key, got, expect):
        got = np.asarray(got)[i]
        if key in exact:
            assert got.tobytes() == np.float64(expect).tobytes(), (key, got, expect)
        else:
            assert abs(got - expect) <= _ROUNDING * abs(expect), (key, got, expect)

    assert result.reference == want["reference"]
    for key in ("numerator", "denominator", "quotient", "deficit"):
        close(key, getattr(result, key), want[key])
    assert set(result.breakdown) == set(want["breakdown"])
    for key, expect in want["breakdown"].items():
        close(key, result.breakdown[key], expect)


_CATALOG_JETS = [("euclidean-ball", {"radius": 2.0}), ("h-only", {"H": 0.5}),
                 ("umbilic-sphere-cap", {"curvature": 1.0}),
                 ("anisotropic-cylinder-like", {}), ("ricci-only", {"value": 1.0}),
                 ("boundary-scal-only", {"value": 1.0}), ("flat-halfspace", {})]


@pytest.mark.filterwarnings("ignore:jet volume element")
class TestQuotientLayerBitIdentity:
    """Series bit for bit; values and deficits to rounding (``_ROUNDING``)."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("geo", _CATALOG_JETS + [("custom", None)],
                             ids=lambda g: g[0])
    def test_escobar_and_plain_trace(self, geo, order, n, halfspace_profiles):
        name, kw = geo
        data = _custom_data(n) if name == "custom" else geometry_catalog(name, n, **kw).data
        jet = fermi_jet(data, order=order, chart_radius=1.5)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[n], 30.0)
        P = energy._reduce_jet(jet.terms())[:3]        # fresh, not memoized
        grid = np.array([1e-3, 3e-3, 1e-2])
        escobar, plain = model.escobar_quotient(grid), model.plain_trace_quotient(grid)
        for i, eps in enumerate(grid):
            _same(escobar, _sum_escobar(jet, P, model.M, eps), i)
            _same(plain, _sum_plain_trace(jet, P, model.M, eps), i)
        _same(model.escobar_quotient(3e-3), _sum_escobar(jet, P, model.M, 3e-3))
        assert model.flat("escobar") == _sum_escobar(jet, P, model.M, 0.0)["reference"]
        assert model.series("escobar").tobytes() == _sum_escobar_series(jet, P, model.M).tobytes()
        assert (model.series("escobar", order=3).tobytes()
                == _sum_escobar_series(jet, P, model.M, order=3).tobytes())
        assert (model.series("plain-trace").tobytes()
                == _sum_plain_trace_series(P, model.M).tobytes())

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    @pytest.mark.parametrize("geo", ["euclidean-ball", "flat-halfspace", "custom"])
    def test_gn_boundary(self, geo, case, request):
        Q, Qp, co = request.getfixturevalue(case)
        data = _custom_data(co.n) if geo == "custom" else geometry_catalog(geo, co.n).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        model = HalfspaceEnergyModel(jet, Qp, 20.0)
        P = energy._reduce_jet(jet.terms())[:3]
        grid = np.array([1e-3, 2e-3, 4e-3])
        result = model.gn_quotient(grid)
        for i, eps in enumerate(grid):
            _same(result, _sum_gn(P, model.M, eps, co.p), i, exact=_GN_EXACT)
        assert (model.series("gn-boundary").tobytes()
                == _sum_gn_series(P, model.M, co.p).tobytes())

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_gn_interior(self, case, request):
        Q, _, co = request.getfixturevalue(case)
        n = co.n
        ric = np.diag(np.linspace(-1.0, 2.0, n))
        for data in (InteriorPointData(n=n, scal=0.0), InteriorPointData(n=n, scal=2.0),
                     InteriorPointData(n=n, scal=float(np.trace(ric)), ric=ric)):
            model = InteriorEnergyModel(data, Q, 20.0)
            P = energy._reduce_jet(data.terms())[:3]
            grid = np.array([[1e-3, 5e-3], [1e-2, 2e-3]])       # any shape
            result = model.gn_quotient(grid)
            assert result.deficit.shape == grid.shape
            for i in np.ndindex(grid.shape):
                _same(result, _sum_gn(P, model.M, grid[i], co.p), i, exact=_GN_EXACT)
            assert (model.series("gn-interior").tobytes()
                    == _sum_gn_series(P, model.M, co.p).tobytes())

    @pytest.mark.parametrize("quotient", ["escobar_quotient", "plain_trace_quotient",
                                          "gn_quotient"])
    def test_an_eps_gets_the_same_bits_in_any_array(self, quotient, gn23, halfspace_profiles):
        profile = gn23[1] if quotient == "gn_quotient" else halfspace_profiles[6]
        data = _custom_data(profile.n)
        model = HalfspaceEnergyModel(fermi_jet(data, order=2, chart_radius=2.0), profile, 20.0)
        grid = np.random.default_rng(3).uniform(1e-4, 2e-2, 37)
        whole = getattr(model, quotient)(grid)
        part = getattr(model, quotient)(grid[5:12].reshape(7, 1))
        for i, eps in enumerate(grid):
            alone = getattr(model, quotient)(eps)
            for key in ("numerator", "denominator", "quotient", "deficit"):
                assert getattr(alone, key).tobytes() == getattr(whole, key)[i].tobytes(), key
            for key, value in alone.breakdown.items():
                assert value.tobytes() == whole.breakdown[key][i].tobytes(), key
        for key in ("numerator", "denominator", "quotient", "deficit"):
            assert getattr(part, key).ravel().tobytes() == getattr(whole, key)[5:12].tobytes()

    def test_series_past_the_top_degree(self, gn23, halfspace_profiles):
        # the fields have degree 8 at most: higher coefficients are zeros
        jet = fermi_jet(_custom_data(5), order=2, chart_radius=1.5)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 30.0)
        P = energy._reduce_jet(jet.terms())[:3]
        series = model.series("escobar", order=10)
        assert series.tobytes() == _sum_escobar_series(jet, P, model.M, order=10).tobytes()
        assert len(series) == 10
        assert (model.series("plain-trace", order=9).tobytes()
                == _sum_plain_trace_series(P, model.M, order=9).tobytes())
        model = HalfspaceEnergyModel(fermi_jet(_custom_data(2), order=2), gn23[1], 20.0)
        P = energy._reduce_jet(model.jet.terms())[:3]
        assert (model.series("gn-boundary", order=9).tobytes()
                == _sum_gn_series(P, model.M, gn23[1].p, order=9).tobytes())

    def test_one_eps_gives_numpy_scalars(self, halfspace_profiles):
        jet = fermi_jet(geometry_catalog("h-only", 5, H=1.0).data, order=2)
        r = HalfspaceEnergyModel(jet, halfspace_profiles[5], 20.0).escobar_quotient(1e-2)
        for value in (r.eps, r.numerator, r.denominator, r.quotient, r.deficit,
                      *r.breakdown.values()):
            assert np.ndim(value) == 0 and isinstance(value, float)

    def test_coefficient_arrays_read_only(self, halfspace_profiles):
        jet = fermi_jet(geometry_catalog("h-only", 5, H=1.0).data, order=2)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 20.0)
        with pytest.raises(ValueError):
            model._series("trq", 3)[0] = 1.0
        series = model.series("escobar")
        assert model.series("escobar").tobytes() == series.tobytes()


# --------------------------------------------------------------------------
# the jet memo
# --------------------------------------------------------------------------

@pytest.fixture
def reductions(monkeypatch):
    """An empty memo for the test, and the terms of every real jet reduction."""
    monkeypatch.setattr(energy, "_memo", OrderedDict())
    calls = []

    def counting(terms, reduce=energy._reduce_jet):
        calls.append(terms)
        return reduce(terms)
    monkeypatch.setattr(energy, "_reduce_jet", counting)
    return calls


class TestJetMemo:
    def test_equal_content_shares_one_reduction(self, reductions, halfspace_profiles):
        U = halfspace_profiles[5]
        data = _custom_data(5)
        copies = {name: getattr(data, name).copy()
                  for name in ("II", "gradT_II", "gradT_H", "riemann_bdy", "r_anbn")}
        twin = dataclasses.replace(data, **copies, label="twin", dnu_ric_nn=3.0)
        first = HalfspaceEnergyModel(fermi_jet(data, order=2, chart_radius=1.0), U, 20.0)
        again = HalfspaceEnergyModel(fermi_jet(twin, order=2, chart_radius=3.0), U, 20.0)
        assert len(reductions) == 1
        assert again.P_tan is first.P_tan and again.P_sca is first.P_sca
        assert again.P_bdy is first.P_bdy
        inner = [InteriorPointData(n=3, scal=6.0, label=label) for label in ("a", "b")]
        assert energy._jet_polys(inner[0]) is energy._jet_polys(inner[1])
        assert len(reductions) == 2

    def test_each_key_field_gives_a_miss(self, reductions):
        data = _custom_data(5)
        base = energy._jet_polys(fermi_jet(data, order=2))
        variants = [dataclasses.replace(data, ric_nn=0.5)]
        for name, index in (("II", (0, 0)), ("gradT_II", (0, 1, 1)), ("gradT_H", (2,)),
                            ("riemann_bdy", (0, 1, 2, 3)), ("r_anbn", (3, 3))):
            a = getattr(data, name).copy()
            a[index] += 0.25
            variants.append(dataclasses.replace(data, **{name: a}))
        reds = [energy._jet_polys(fermi_jet(v, order=2)) for v in variants]
        reds.append(energy._jet_polys(fermi_jet(data, order=1)))
        assert len(reductions) == 1 + len(reds) == len(energy._memo)
        assert len({id(r) for r in [base] + reds}) == len(reductions)
        ric = np.diag([1.0, 2.0, 3.0])
        for point in (InteriorPointData(n=3, scal=6.0), InteriorPointData(n=4, scal=6.0),
                      InteriorPointData(n=3, scal=3.0), InteriorPointData(n=3, scal=6.0, ric=ric),
                      InteriorPointData(n=3, scal=3.0, ric=ric)):   # scal alone, too
            energy._jet_polys(point)
        assert len(reductions) == 1 + len(reds) + 5

    def test_in_place_mutation_reduces_the_new_content(self, reductions, halfspace_profiles):
        U = halfspace_profiles[5]
        data = geometry_catalog("h-only", 5, H=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        before = HalfspaceEnergyModel(jet, U, 20.0)
        q = vars(before.escobar_quotient(1e-2))
        data.II *= 2.0                       # the same objects, new content
        after = HalfspaceEnergyModel(jet, U, 20.0)
        assert len(reductions) == 2 and after.P_tan is not before.P_tan
        # a model is a snapshot of its jet at construction
        assert vars(before.escobar_quotient(1e-2)) == q
        fresh = HalfspaceEnergyModel(
            fermi_jet(geometry_catalog("h-only", 5, H=2.0).data, order=2, chart_radius=2.0),
            U, 20.0)
        assert fresh.P_tan is after.P_tan and len(reductions) == 2
        assert vars(fresh.escobar_quotient(1e-2)) == vars(after.escobar_quotient(1e-2))
        assert vars(after.escobar_quotient(1e-2)) != q

    def test_cached_reductions_read_only(self, reductions):
        red = energy._jet_polys(fermi_jet(_custom_data(5), order=2))
        inner = energy._jet_polys(InteriorPointData(n=3, scal=6.0))
        for r in (red, inner):
            for poly in r[:3]:
                with pytest.raises(TypeError):
                    poly[(0, 0)] = 1.0
            with pytest.raises(AttributeError):
                r.H = 1.0
            with pytest.raises(TypeError):
                r[0] = {}

    def test_repeated_channel_fit_reduces_no_jet(self, reductions, halfspace_profiles):
        U = halfspace_profiles[5]
        fits = []
        for R in (40.0, 40.0, 120.0):
            C = escobar_constants(5, weighted_moments(U, R))
            fits.append(channel_fit_second_order(5, U, C, R=R))
            assert len(reductions) == 3   # the three probe jets, reduced once
        assert fits[1].details == fits[0].details


class TestEscobarQuotient:
    def test_flat_scale_invariance(self, flat_model):
        q1 = flat_model.escobar_quotient(1e-3).quotient
        q2 = flat_model.escobar_quotient(1e-2).quotient
        assert abs(q1 - q2) / q1 < 1e-6
        # every deficit term of the flat jet has degree 0: exact zeros at the
        # channel fit's eps levels
        for eps in 4e-3 * 0.5 ** np.arange(6):
            assert flat_model.escobar_quotient(eps).deficit == 0.0

    def test_flat_matches_moment_S_star(self, flat_model, constants):
        # independent code path: rectangle-matrix quotient vs moment-table S*(R)
        assert flat_model.flat("escobar") == pytest.approx(constants[5].S_star_R, rel=1e-10)

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
        y /= h_model.flat("escobar")
        c1 = fit_power_series(EPS6, y, (1, 2, 3))[0]
        assert c1 == pytest.approx(constants[5].rho_conf, rel=0.02)
        # and the fit agrees with the exact jet series at much tighter tolerance
        assert c1 == pytest.approx(h_model.series("escobar")[0], rel=1e-5)

    def test_trace_mass_has_no_linear_term(self, h_model):
        t0 = h_model.M.trq[(0, 0)]
        dev = h_model.integral("trq", EPS6) - t0
        c = fit_power_series(EPS6, dev, (1, 2))
        assert abs(c[0]) <= 1e-12 * t0

    def test_isotropy_cancellation_order1(self, halfspace_profiles):
        # pure traceless II at first order: no linear deficit coefficient
        data = geometry_catalog("anisotropic-cylinder-like", 5).data
        jet = fermi_jet(data, order=1, chart_radius=2.0)
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        y = np.array([m.escobar_quotient(e).deficit for e in EPS6])
        c = fit_power_series(EPS6, y / m.flat("escobar"), (1, 2))
        assert abs(c[0]) < 1e-10

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
        axis = [jet.evaluate("sqrt_g", np.zeros(4), s) for s in t]
        assert np.array_equal(1.0 - m._H * t + m._kappa_vol * t ** 2, axis)

    def test_jet_positivity_warning_off_axis(self, halfspace_profiles):
        # boundary-scal-only: sqrt|g| = 1 on the axis, but the -Ric_bar/6 term
        # makes it negative at |y'| = 0.8 inside the support at eps = 1e-2
        data = geometry_catalog("boundary-scal-only", 5, value=100.0).data
        jet = fermi_jet(data, order=2, chart_radius=10.0)
        assert all(jet.evaluate("sqrt_g", np.zeros(4), s) > 0 for s in np.linspace(0.0, 0.8, 9))
        assert jet.evaluate("sqrt_g", (0.8, 0.0, 0.0, 0.0), 0.0) < 0
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        with pytest.warns(UserWarning, match="non-positive"):
            m.escobar_quotient(1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.escobar_quotient(1e-3)   # |y'| <= 0.08: 1 - 25 * 0.08^2 / 6 > 0

    def test_non_positive_dirichlet_energy_raises(self, halfspace_profiles):
        # on the order-1 unit ball at eps = 0.6 the Dirichlet energy D is
        # negative while the H term keeps N = D + ((n-2)/2) eps H tr2
        # positive: the check reads D itself, as plain trace does
        jet = fermi_jet(geometry_catalog("euclidean-ball", 5).data, order=1, chart_radius=100.0)
        m = HalfspaceEnergyModel(jet, halfspace_profiles[5], 20.0)
        _, _, value = m._fields(0.6)
        D, tr2 = value[energy._ROW["dirichlet"]], value[energy._ROW["tr2"]]
        assert D < 0.0 < D + 1.5 * 0.6 * m._H * tr2
        with pytest.warns(UserWarning, match="non-positive"):
            for quotient in (m.escobar_quotient, m.plain_trace_quotient):
                with pytest.raises(ValueError, match="non-positive on the bubble support at eps=0.6"):
                    quotient(np.array([1e-3, 0.6]))
        assert m.escobar_quotient(1e-3).deficit > 0.0


class TestPlainTrace:
    def test_flat_value_scale_free(self, flat_model):
        # scale-free up to the deliberately included mean-zero gauge term,
        # which is O(eps^((n+2)/2) * eps^((n-2)/2)) and eps-dependent
        q1 = flat_model.plain_trace_quotient(1e-3).quotient
        q2 = flat_model.plain_trace_quotient(1e-2).quotient
        assert abs(q1 - q2) / q1 < 1e-5

    def test_slope_is_half_theta(self, h_model, constants):
        y = np.array([h_model.plain_trace_quotient(e).deficit for e in EPS6])
        y /= h_model.flat("plain-trace")
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
        m = HalfspaceEnergyModel(jet, Qp, 20.0)
        assert m.flat("gn-boundary") == co.W_flat_halfspace
        # cutoff barely moves the quotient for exponentially decaying profiles
        deep = halfspace_moment_matrix(Qp, 40.0)
        assert m.flat("gn-boundary") == pytest.approx(weinstein_quotient(deep, 3.0), rel=1e-6)

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_boundary_slope(self, case, request):
        Q, Qp, co = request.getfixturevalue(case)
        n = co.n
        data = geometry_catalog("euclidean-ball", n).data if n == 2 else \
            geometry_catalog("h-only", n, H=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=3.0)
        m = HalfspaceEnergyModel(jet, Qp, 20.0)
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

    def test_profile_without_p_raises(self, halfspace_profiles):
        jet = fermi_jet(BoundaryPointData(n=5), order=2)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 20.0)
        assert model.M.pp is None
        with pytest.raises(ValueError, match=r"L\^\(p\+1\)"):
            model.gn_quotient(1e-3)

    def test_interior_flat_exact(self, gn23):
        Q, _, co = gn23
        m = InteriorEnergyModel(InteriorPointData(n=2, scal=0.0), Q, 20.0)
        r = m.gn_quotient(1e-2)
        assert r.deficit == pytest.approx(0.0, abs=1e-14)
        assert r.quotient == pytest.approx(co.C_star, rel=1e-5)


class TestDeficitSeries:
    def test_geometry_sweep_carries_series(self, halfspace_profiles):
        data = geometry_catalog("h-only", 5, H=0.5).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        sweep = deficit_series(jet, halfspace_profiles[5], 30.0, EPS6[:3])
        assert sweep.series is not None
        # deficits reproduced by the series to high relative accuracy
        model_vals = sum(c * EPS6[:3] ** (k + 1) for k, c in enumerate(sweep.series))
        assert np.allclose(model_vals * sweep.reference, sweep.deficits, rtol=1e-4)


class TestChannelFit:
    def test_kappa3_matches_moments(self, channel_fit_n5):
        assert channel_fit_n5.kappa3_rel_err < 0.05

    def test_fit_residuals_at_noise(self, channel_fit_n5):
        assert max(channel_fit_n5.fit_errors.values()) < 1e-10

    def test_measured_channel_values(self, channel_fit_n5):
        # exact Beta-function predictions for the probe channels at R = infinity:
        # kappa1 -> -(n-2) g2 / (2(n-1)) = -3/8, kappa2 -> -3/16 (see ledger)
        assert channel_fit_n5.kappa1 == pytest.approx(-0.375, rel=0.02)
        assert channel_fit_n5.kappa2 == pytest.approx(-0.1875, rel=0.02)

    def test_requires_n_at_least_5(self, halfspace_profiles, constants):
        with pytest.raises(ValueError):
            channel_fit_second_order(4, halfspace_profiles[4], constants[4])

    @pytest.mark.parametrize("n, R", [(5, 100.0), (6, 40.0), (7, 300.0)])
    def test_series_matches_dyadic_fit(self, n, R, halfspace_profiles):
        # c2 read from the series equals a least-squares fit of c2 eps^2 +
        # c3 eps^3 + c4 eps^4 to six dyadic levels of quadrature deficits
        U = halfspace_profiles[n]
        fit = channel_fit_second_order(n, U, escobar_constants(n, weighted_moments(U, R)), R=R)
        eps = min(4e-3, 0.25 / R) * 0.5 ** np.arange(6)
        probes = {"kappa1": ("ricci-only", {"value": 1.0}),
                  "kappa2": ("boundary-scal-only", {"value": 1.0}),
                  "kappa3_fit": ("anisotropic-cylinder-like", {})}
        for field_name, (name, kw) in probes.items():
            data = geometry_catalog(name, n, **kw).data
            sweep = deficit_series(fermi_jet(data, order=2), U, R, eps)
            c2 = fit_power_series(eps, sweep.deficits / sweep.reference, (2, 3, 4))[0]
            channel = data.II_ring_sq if name.startswith("aniso") else 1.0
            assert c2 / channel == pytest.approx(getattr(fit, field_name), rel=1e-10, abs=0)

    def test_no_jet_warning_at_large_cutoff(self, halfspace_profiles):
        # the guard level keeps eps 2R <= 1/2 inside the unit chart at every R
        U = halfspace_profiles[5]
        C = escobar_constants(5, weighted_moments(U, 500.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = channel_fit_second_order(5, U, C, R=500.0)
        assert fit.kappa2 == pytest.approx(-0.1875, rel=0.01)

    def test_guard_residual_raises(self, monkeypatch, halfspace_profiles, constants):
        monkeypatch.setattr(energy, "_FIT_RESIDUAL_TOL", -1.0)
        with pytest.raises(RuntimeError, match="residual"):
            channel_fit_second_order(5, halfspace_profiles[5], constants[5], R=40.0)

    def test_details_hold_the_series(self, channel_fit_n5, halfspace_profiles):
        jet = fermi_jet(geometry_catalog("ricci-only", 5, value=1.0).data, order=2)
        series = HalfspaceEnergyModel(jet, halfspace_profiles[5], 100.0).series("escobar")
        assert channel_fit_n5.details["ricci"]["series"] == series.tolist()
        assert channel_fit_n5.kappa1 == series[1]


def _exact_kappas(n):
    """The rational forms of the untruncated channel constants."""
    k1 = Fraction(-(n - 2), (n - 1) * (n - 3) * (n - 4))
    return float(k1), float(k1 / 2), float(Fraction(-1, (n - 1) * (n - 3)))


class TestExactChannelConstants:
    """The channel fit at R = inf: the exact kappas, and what they measure."""

    @pytest.fixture(scope="class")
    def exact_fits(self):
        fits = {}
        for n in range(5, 11):
            U = escobar_halfspace_optimizer(n)
            C = escobar_constants(n, weighted_moments(U, 20.0))
            fits[n] = channel_fit_second_order(n, U, C, R=math.inf)
        return fits

    @pytest.mark.parametrize("n", range(5, 11))
    def test_rational_forms(self, exact_fits, n):
        fit = exact_fits[n]
        for got, want in zip((fit.kappa1, fit.kappa2, fit.kappa3_fit), _exact_kappas(n)):
            assert got == pytest.approx(want, rel=1e-14, abs=0)
        values = [fit.kappa1, fit.kappa2, fit.kappa3_fit, fit.kappa3_moment,
                  fit.kappa3_rel_err, *fit.fit_errors.values(),
                  *(c for d in fit.details.values() for c in d["series"])]
        assert np.isfinite(values).all()
        assert set(fit.fit_errors.values()) == {0.0}
        assert all(len(d["series"]) == min(4, n - 3) for d in fit.details.values())

    def test_finite_fit_builds_no_untruncated_probe(self, monkeypatch, halfspace_profiles,
                                                    constants):
        cutoffs, build = [], energy.halfspace_moment_matrix
        monkeypatch.setattr(energy, "halfspace_moment_matrix",
                            lambda profile, R, *a: cutoffs.append(R) or build(profile, R, *a))
        channel_fit_second_order(5, halfspace_profiles[5], constants[5], R=40.0)
        assert cutoffs and math.inf not in cutoffs

    @pytest.mark.parametrize("n, gauss", [(5, 1.0 / 16.0), (6, 0.0), (7, -1.0 / 144.0)])
    def test_what_the_kappas_measure(self, n, gauss):
        # H = 0 and three channels on at once. With Scal_g off the eps^2
        # coefficient is the renormalized mass; with the Gauss-identity
        # Scal_g = Scal_bdy + 2 Ric_nn + |II_ring|^2 its c_n Scal_g term
        # adds -kappa2 Scal_g (kappa2 = -c_n w2/J and kappa1 = 2 kappa2), which
        # leaves (kappa3 - kappa2)|II_ring|^2
        k1, k2, k3 = _exact_kappas(n)
        II = np.zeros((n - 1, n - 1))
        II[0, 0], II[1, 1] = 0.7, -0.7
        U = escobar_halfspace_optimizer(n)
        c2 = {}
        for label, override in (("off", 0.0), ("gauss", None)):
            data = geometry_catalog("custom", n, II=II, ric_nn=0.4, scal_bdy=-1.1,
                                    scal_ambient_override=override).data
            model = HalfspaceEnergyModel(fermi_jet(data), U, math.inf)
            c2[label] = model.series("escobar", order=2)[1]
        ring = data.II_ring_sq
        assert (data.H, ring) == (0.0, pytest.approx(0.98, rel=1e-15))
        assert data.scal_ambient == pytest.approx(0.68, rel=1e-14)
        assert c2["off"] == pytest.approx(k1 * 0.4 + k2 * -1.1 + k3 * ring, rel=0, abs=1e-14)
        assert c2["gauss"] == pytest.approx((k3 - k2) * ring, rel=0, abs=1e-14)
        assert (k3 - k2) == pytest.approx(gauss, rel=1e-12, abs=1e-15)


class TestDiagonalRegime:
    def test_diagonal_sweep_slope(self, halfspace_profiles, constants):
        # each level carries its own cutoff R(eps) with eps R(eps) -> 0;
        # the fitted slope still lands on the first-order coefficient
        data = geometry_catalog("h-only", 5, H=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=3.0)
        eps = 1e-2 * 0.5 ** np.arange(4)
        sweep = deficit_series(jet, halfspace_profiles[5], 30.0, eps,
                               functional="escobar", diagonal=True)
        y = sweep.deficits / sweep.result.reference
        c1 = fit_power_series(eps, y, (1, 2))[0]
        assert c1 == pytest.approx(constants[5].rho_conf, rel=0.02)
        assert sweep.source == "geometry-diagonal"
        # cutoffs actually grow as eps shrinks
        Rs = list(sweep.result.R)
        assert Rs == sorted(Rs)
        assert np.all(eps * 2 * np.array(Rs) <= eps[0] * 2 * Rs[0] + 1e-12)

    def test_diagonal_only_for_escobar(self, halfspace_profiles):
        with pytest.raises(ValueError, match="diagonal"):
            deficit_series(None, halfspace_profiles[5], 30.0, [1e-3],
                           functional="plain-trace", diagonal=True)


class TestEmpiricalSlope:
    def test_matches_least_squares_line(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            eps = np.sort(rng.uniform(1e-4, 1e-1, size=int(rng.integers(2, 7))))
            err = rng.uniform(0.5, 2.0, size=eps.size) * eps ** rng.uniform(0.5, 3.0)
            levels = int(rng.integers(2, eps.size + 1))
            A = np.stack([np.log(eps[:levels]), np.ones(levels)], axis=1)
            want = np.linalg.lstsq(A, np.log(err[:levels]), rcond=None)[0][0]
            got = empirical_slope(eps[::-1], -err[::-1], levels=levels)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_errors_dropped_then_nan(self):
        eps = np.array([1e-3, 2e-3, 4e-3])
        assert empirical_slope(eps, [0.0, 8e-6, 3.2e-5]) == pytest.approx(2.0, rel=1e-12)
        assert math.isnan(empirical_slope(eps, [0.0, 0.0, 1e-5]))
        # only the finest ``levels`` scales count: the coarsest error is ignored
        eps4 = np.append(eps, 8e-3)
        assert empirical_slope(eps4, [1e-6, 4e-6, 0.0, 1.0]) == pytest.approx(2.0, rel=1e-12)
