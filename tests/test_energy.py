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
    halfspace_moment_matrix, _ser_div, _ser_mul, _ser_pow,
)
from bubblelab.moments import weighted_moments
from bubblelab.profiles import RadialProfile, aubin_talenti, cutoff, gn_exponents, sphere_area
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


_FIELDS = ("tan", "nor", "w2", "w1", "pp", "tr2", "trq", "trq1")
_STD_SPEC, _HIGH_SPEC = QuadratureSpec(order=20, subdiv=1), QuadratureSpec(order=28, subdiv=2)
# (id, profile, R, spec, p_exponent, slot): the profile is an Escobar n, a
# GN fixture name with the slot of its ground state (0) or half-space
# near-optimizer (1), or "at" for an Aubin-Talenti bubble
_ENGINE_CASES = (
    [(f"escobar-n{n}-R{R:g}", n, R, _STD_SPEC, None, None)
     for n in (4, 5, 6, 7) for R in (20.0, 135.0, 707.0)]
    + [("escobar-n5-R20-high", 5, 20.0, _HIGH_SPEC, None, None),
       ("gn23-halfspace", "gn23", 20.0, _STD_SPEC, 3.0, 1),
       ("gn33-halfspace", "gn33", 20.0, _STD_SPEC, 3.0, 1),
       ("gn23-ground", "gn23", 20.0, _STD_SPEC, 3.0, 0),
       ("gn33-ground", "gn33", 20.0, _STD_SPEC, 3.0, 0),
       ("aubin-talenti-n4", "at", 30.0, _STD_SPEC, 2.0, None)])


def _engine_case(case, request):
    name, which, R, spec, p, slot = case
    if which == "at":
        prof = aubin_talenti(4, lam=0.7)
    elif isinstance(which, int):
        prof = request.getfixturevalue("halfspace_profiles")[which]
    else:
        prof = request.getfixturevalue(which)[slot]
    return name, prof, R, spec, p, getattr(prof, "shift", 0.0)


def _two_call_matrix(profile, R, spec, p_exponent, t_offset):
    """The moment matrix as first written: meshgrid coordinates, separate
    value/grad and chi/chi' calls, every field on the whole square."""
    n = profile.n
    halfspace = profile.kind in energy._HALFSPACE_KINDS
    dim = n - 1 if halfspace else n
    om = sphere_area(dim - 1)
    chi = cutoff(R)

    def run(sp):
        r, wr = grid_1d(0.0, 2.0 * R, sp.order, sp.subdiv, extra=(R, 1.5 * R))
        if halfspace:
            t, wt = grid_1d(0.0, 2.0 * R + t_offset, sp.order, sp.subdiv, extra=(R, 1.5 * R))
            Rg, Tg = np.meshgrid(r, t, indexing="ij")
            u = profile.value(Rg, Tg)
            ur, ut = profile.grad(Rg, Tg)
        else:
            t, wt = np.zeros(1), np.ones(1)
            Rg, Tg = r[:, None], np.zeros((r.size, 1))
            u, ur, ut = profile.value(Rg), profile.grad(Rg), 0.0
        rho = np.sqrt(Rg ** 2 + Tg ** 2)
        c, dc = chi(rho), chi.deriv(rho)
        safe = np.where(rho > 0, rho, 1.0)
        w = c * u
        fields = {"tan": (c * ur + u * dc * (Rg / safe)) ** 2,
                  "nor": (c * ut + u * dc * (Tg / safe)) ** 2,
                  "w2": w ** 2, "w1": w}
        if p_exponent is not None:
            fields["pp"] = np.abs(w) ** (p_exponent + 1.0)
        Vr = r ** energy._POWERS * (wr * om * r ** (dim - 1))
        Vt = t ** energy._POWERS * wt
        out = {k: np.einsum("jb,ib->ij", Vt, np.einsum("ia,ab->ib", Vr, F))
               for k, F in fields.items()}
        if halfspace and n >= 3:
            q = 2.0 * (n - 1) / (n - 2)
            ub = chi(r) * profile.value(r, 0.0)
            traces = {"tr2": ub ** 2, "trq": np.abs(ub) ** q, "trq1": np.abs(ub) ** (q - 1.0)}
            out.update((k, np.einsum("ia,a->i", Vr, d)[:, None]) for k, d in traces.items())
        else:
            out.update((k, np.zeros((5, 1))) for k in ("tr2", "trq", "trq1"))
        return out

    coarse, fine = run(spec), run(spec.refined())
    delta = {k: fine[k] - coarse[k] for k in fine}
    err = float(np.max([np.max(np.abs(delta[k]) / np.maximum(1.0, np.abs(fine[k])))
                        for k in fine]))
    return fine, delta, err


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
        _, prof, R, spec, p, t_offset = _engine_case(case, request)
        M = energy._build_moment_matrix(prof, R, spec, p, t_offset)
        fine, delta, err = _two_call_matrix(prof, R, spec, p, t_offset)
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
        _, prof, R, _, _, t_offset = _engine_case(case, request)
        x = np.linspace(0.0, 2.0 * R + t_offset, 97)
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
        chi = cutoff(R)
        rho = np.sqrt(Rg ** 2 + Tg ** 2)
        c, band, dc = chi._glue(rho)
        assert c.tobytes() == chi(rho).tobytes()
        d = np.zeros_like(rho)
        d.reshape(-1)[band] = dc
        assert d.tobytes() == chi.deriv(rho).tobytes()
        inside = (rho > R) & (rho < 2.0 * R)
        assert band.tolist() == np.flatnonzero(inside).tolist()

    @pytest.mark.parametrize("which", ["escobar", "gn-halfspace", "gn-ground-state"])
    def test_one_location_and_one_bulk_glue_per_resolution(self, which, monkeypatch,
                                                           halfspace_profiles, gn23):
        from bubblelab import profiles
        counts = {"locate": 0, "bulk_glue": 0, "bulk_fields": 0}

        def counting(name, fn, bulk_only):
            def wrapped(self, x, *args, **kwargs):
                if not bulk_only or np.ndim(x) == 2:
                    counts[name] += 1
                return fn(self, x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(profiles._Bernstein, "locate",
                            counting("locate", profiles._Bernstein.locate, False))
        monkeypatch.setattr(profiles.Cutoff, "_glue",
                            counting("bulk_glue", profiles.Cutoff._glue, True))
        monkeypatch.setattr(profiles.RadialProfile, "_fields",
                            counting("bulk_fields", profiles.RadialProfile._fields, True))
        prof, p, t_offset = {"escobar": (halfspace_profiles[5], None, 0.0),
                             "gn-halfspace": (gn23[1], 3.0, gn23[1].shift),
                             "gn-ground-state": (gn23[0], 3.0, 0.0)}[which]
        energy._build_moment_matrix(prof, 20.0, QuadratureSpec(), p, t_offset)
        # two resolutions; the n = 2 GN profiles have no boundary traces
        assert counts == {"locate": 0 if which == "escobar" else 2,
                          "bulk_glue": 2, "bulk_fields": 2}


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


# --------------------------------------------------------------------------
# the quotient layer: per-model term lists against term-by-term sums
# --------------------------------------------------------------------------

# An in-test copy of the sums over the jet polynomials that the quotients
# were built from; the models' term lists must reproduce them bit for bit.

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
             "H_boundary": (n - 2) / 2.0 * eps * jet.H * _sum_eval(P_bdy, M.tr2, eps)}
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
                * 0.5 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
                / math.gamma((a + b + 2) / 2))
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
    N += (n - 2) / 2.0 * jet.H * np.concatenate([[0.0], t2[:-1]])
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


def _same(result, want):
    got = {k: getattr(result, k) for k in want}
    assert got == want
    for key in ("numerator", "denominator", "quotient", "reference", "deficit"):
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


_CATALOG_JETS = [("euclidean-ball", {"radius": 2.0}), ("h-only", {"H": 0.5}),
                 ("umbilic-sphere-cap", {"curvature": 1.0}),
                 ("anisotropic-cylinder-like", {}), ("ricci-only", {"value": 1.0}),
                 ("boundary-scal-only", {"value": 1.0}), ("flat-halfspace", {})]


@pytest.mark.filterwarnings("ignore:jet volume element")
class TestQuotientLayerBitIdentity:
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("geo", _CATALOG_JETS + [("custom", None)],
                             ids=lambda g: g[0])
    def test_escobar_and_plain_trace(self, geo, order, n, halfspace_profiles):
        name, kw = geo
        data = _custom_data(n) if name == "custom" else geometry_catalog(name, n, **kw).data
        jet = fermi_jet(data, order=order, chart_radius=1.5)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[n], 30.0)
        P = energy._reduce_halfspace_jet(jet)[:3]        # fresh, not memoized
        for eps in (1e-3, np.float64(3e-3), 1e-2):
            _same(model.escobar_quotient(eps), _sum_escobar(jet, P, model.M, eps))
            _same(model.plain_trace_quotient(eps), _sum_plain_trace(jet, P, model.M, eps))
        assert model.flat_escobar() == _sum_escobar(jet, P, model.M, 0.0)["reference"]
        assert model.escobar_series().tobytes() == _sum_escobar_series(jet, P, model.M).tobytes()
        assert (model.escobar_series(order=3).tobytes()
                == _sum_escobar_series(jet, P, model.M, order=3).tobytes())
        assert (model.plain_trace_series().tobytes()
                == _sum_plain_trace_series(P, model.M).tobytes())

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    @pytest.mark.parametrize("geo", ["euclidean-ball", "flat-halfspace", "custom"])
    def test_gn_boundary(self, geo, case, request):
        Q, Qp, co = request.getfixturevalue(case)
        data = _custom_data(co.n) if geo == "custom" else geometry_catalog(geo, co.n).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        model = HalfspaceEnergyModel(jet, Qp, 20.0, p_exponent=co.p)
        P = energy._reduce_halfspace_jet(jet)[:3]
        for eps in (1e-3, np.float64(2e-3), 4e-3):
            _same(model.gn_quotient(eps), _sum_gn(P, model.M, eps, co.p))
        assert model.gn_series().tobytes() == _sum_gn_series(P, model.M, co.p).tobytes()

    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_gn_interior(self, case, request):
        Q, _, co = request.getfixturevalue(case)
        n = co.n
        ric = np.diag(np.linspace(-1.0, 2.0, n))
        for data in (InteriorPointData(n=n, scal=0.0), InteriorPointData(n=n, scal=2.0),
                     InteriorPointData(n=n, scal=float(np.trace(ric)), ric=ric)):
            model = InteriorEnergyModel(data, Q, 20.0)
            P = energy._reduce_interior_jet(data)[:3]
            for eps in (1e-3, np.float64(5e-3), 1e-2):
                _same(model.gn_quotient(eps), _sum_gn(P, model.M, eps, co.p))
            assert model.gn_series().tobytes() == _sum_gn_series(P, model.M, co.p).tobytes()


# --------------------------------------------------------------------------
# the jet memo
# --------------------------------------------------------------------------

@pytest.fixture
def reductions(monkeypatch):
    """An empty memo for the test, and the argument of every real jet reduction."""
    monkeypatch.setattr(energy, "_memo", OrderedDict())
    calls = []
    for name in ("_reduce_halfspace_jet", "_reduce_interior_jet"):
        def counting(jet, reduce=getattr(energy, name)):
            calls.append(jet)
            return reduce(jet)
        monkeypatch.setattr(energy, name, counting)
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
        assert energy._interior_jet_polys(inner[0]) is energy._interior_jet_polys(inner[1])
        assert len(reductions) == 2

    def test_each_key_field_gives_a_miss(self, reductions):
        data = _custom_data(5)
        base = energy._halfspace_jet_polys(fermi_jet(data, order=2))
        variants = [dataclasses.replace(data, ric_nn=0.5)]
        for name, index in (("II", (0, 0)), ("gradT_II", (0, 1, 1)), ("gradT_H", (2,)),
                            ("riemann_bdy", (0, 1, 2, 3)), ("r_anbn", (3, 3))):
            a = getattr(data, name).copy()
            a[index] += 0.25
            variants.append(dataclasses.replace(data, **{name: a}))
        reds = [energy._halfspace_jet_polys(fermi_jet(v, order=2)) for v in variants]
        reds.append(energy._halfspace_jet_polys(fermi_jet(data, order=1)))
        assert len(reductions) == 1 + len(reds) == len(energy._memo)
        assert len({id(r) for r in [base] + reds}) == len(reductions)
        ric = np.diag([1.0, 2.0, 3.0])
        for point in (InteriorPointData(n=3, scal=6.0), InteriorPointData(n=4, scal=6.0),
                      InteriorPointData(n=3, scal=3.0), InteriorPointData(n=3, scal=6.0, ric=ric),
                      InteriorPointData(n=3, scal=3.0, ric=ric)):   # scal alone, too
            energy._interior_jet_polys(point)
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
        red = energy._halfspace_jet_polys(fermi_jet(_custom_data(5), order=2))
        inner = energy._interior_jet_polys(InteriorPointData(n=3, scal=6.0))
        for r in (red, inner):
            for poly in r[:3]:
                with pytest.raises(TypeError):
                    poly[(0, 0)] = 1.0
            with pytest.raises(AttributeError):
                r.H = 1.0
            with pytest.raises(TypeError):
                r[0] = {}

    def test_repeated_channel_fit_reduces_no_jet(self, reductions, halfspace_profiles):
        from bubblelab.moments import escobar_constants
        U = halfspace_profiles[5]
        fits = []
        for R in (40.0, 40.0, 120.0):     # chart radius 1, 1, then 1.008
            C = escobar_constants(5, weighted_moments(U, R))
            fits.append(channel_fit_second_order(5, U, C, R=R))
            assert len(reductions) == 4   # the four probe jets, reduced once
        assert fits[1].details == fits[0].details


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
