import math

import numpy as np
import pytest

from bubblelab import geometry
from bubblelab.geometry import (
    BoundaryPointData, InteriorPointData, fermi_jet,
    renormalized_mass, theta_coefficient, geometry_catalog, CATALOG_NAMES,
)


def rng_data(n, seed=7):
    rng = np.random.default_rng(seed)
    m = n - 1
    A = rng.normal(size=(m, m))
    II = 0.5 * (A + A.T)
    gII = rng.normal(size=(m, m, m))
    gII = 0.5 * (gII + np.transpose(gII, (0, 2, 1)))
    return BoundaryPointData(n=n, II=II, ric_nn=0.37, scal_bdy=1.4,
                             gradT_II=gII, gradT_H=rng.normal(size=m))


class TestBoundaryPointData:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            BoundaryPointData(n=4, II=np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_symmetry_tolerance_boundary(self):
        # the np.allclose predicate: |II - II^T| <= 1e-12 + 1e-5 |II^T|
        II = np.diag([1.0, 2.0, 3.0])
        II[1, 0] = 1e-13
        BoundaryPointData(n=4, II=II)
        for gap in (1e-6, 1e-11):   # past atol, and rtol scales the zero partner
            II[1, 0] = gap
            with pytest.raises(ValueError, match="symmetric"):
                BoundaryPointData(n=4, II=II)
        big = 1e8 * np.array([[1.0, 2.0], [2.0, 1.0]])
        for gap, ok in ((1e-4, True), (1.5e3, True), (2.5e3, False)):   # rtol 1e-5 of 2e8
            II = big.copy()
            II[0, 1] += gap
            if ok:
                d = BoundaryPointData(n=3, II=II)
                # the accepted II is stored symmetrized, and II_ring_sq reads it
                assert np.array_equal(d.II, d.II.T)
                assert np.array_equal(d.II, 0.5 * (II + II.T))
                ring = d.II - (np.trace(II) / 2) * np.eye(2)
                assert d.II_ring_sq == np.sum(ring ** 2)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    BoundaryPointData(n=3, II=II)
        # symmetric input is stored exactly
        sym = np.array([[0.3, 0.1], [0.1, -0.7]])
        assert np.array_equal(BoundaryPointData(n=3, II=sym).II, sym)

    def test_trace_and_ring(self):
        d = rng_data(5)
        assert d.H == pytest.approx(np.trace(d.II), abs=1e-12)
        assert d.II_ring_sq == pytest.approx(d.II_sq - d.H ** 2 / d.m, abs=1e-12)
        assert d.II_ring_sq >= 0

    def test_n2_scalar_geodesic_curvature(self):
        d = BoundaryPointData(n=2, II=np.array([[1.3]]))
        assert d.H == pytest.approx(1.3)
        assert d.II_ring_sq == 0.0  # enforced identically in n = 2

    def test_gauss_ambient_scalar(self):
        ball = geometry_catalog("euclidean-ball", 5).data
        assert ball.scal_ambient == pytest.approx(0.0, abs=1e-12)
        probe = geometry_catalog("ricci-only", 5).data
        assert probe.scal_ambient == 0.0  # channel probes dial it off
        free = BoundaryPointData(n=5, ric_nn=1.0)
        assert free.scal_ambient == pytest.approx(2.0)

    def test_riemann_consistency_check(self):
        d = rng_data(6)
        d.validate()
        d.scal_bdy = d.scal_bdy + 1.0   # now inconsistent with riemann_bdy
        with pytest.raises(ValueError, match="Riemann"):
            d.validate()


class TestFermiJet:
    def test_flat_jet_is_identity(self):
        jet = fermi_jet(BoundaryPointData(n=5), order=2)
        y = np.array([0.2, -0.1, 0.05, 0.3])
        assert np.allclose(jet.evaluate("g_lower", y[:4], 0.23), np.eye(4))
        assert jet.evaluate("sqrt_g", y[:4], 0.23) == 1.0

    def test_first_order_consistency(self):
        d = rng_data(5)
        jet = fermi_jet(d, order=2)
        h = 1e-7
        m = d.m
        z = np.zeros(m)
        dg = (jet.evaluate("g_lower", z, h) - jet.evaluate("g_lower", z, -h)) / (2 * h)
        assert np.allclose(dg, -2.0 * d.II, atol=1e-6)
        ds = (jet.evaluate("sqrt_g", z, h) - jet.evaluate("sqrt_g", z, -h)) / (2 * h)
        assert ds == pytest.approx(-d.H, abs=1e-6)
        assert np.allclose(jet.evaluate("g_lower", z, 0.0), np.eye(m))
        assert jet.evaluate("sqrt_g", z, 0.0) == 1.0

    def test_ball_volume_jet_matches_power_expansion(self):
        # sqrt|g| along the normal must Taylor-match (1-t)^(n-1) through t^2
        for n in (3, 5, 7):
            ball = geometry_catalog("euclidean-ball", n).data
            jet = fermi_jet(ball, order=2)
            m = n - 1
            coeff = {(px, py): T for px, py, T in jet.terms()["sqrt_g"]}[0, 2]
            assert coeff == pytest.approx(m * (m - 1) / 2.0, abs=1e-12)
            t = 0.05
            exact = (1 - t) ** m
            cubic = math.comb(m, 3) if m >= 3 else 0
            assert jet.evaluate("sqrt_g", np.zeros(m), t) == pytest.approx(
                exact, abs=(cubic + 1) * t ** 3)

    def test_inverse_jet_residual_cubic(self):
        # g^ab g_bc - delta must vanish through total degree 2
        d = rng_data(6, seed=3)
        jet = fermi_jet(d, order=2)
        rng = np.random.default_rng(0)
        yp0 = rng.normal(size=d.m)
        res = []
        for s in (1e-1, 5e-2, 2.5e-2):
            prod = (jet.evaluate("g_upper", s * yp0, s * 0.7)
                    @ jet.evaluate("g_lower", s * yp0, s * 0.7))
            res.append(np.max(np.abs(prod - np.eye(d.m))))
        # second-order cancellation is exact: residual scales like s^3
        slope = np.polyfit(np.log([1e-1, 5e-2, 2.5e-2]), np.log(res), 1)[0]
        assert slope > 2.9

    def test_gradT_II_meets_yprime_in_its_first_slot(self):
        # (gradT II)_{c,ab} y_c y_n: with II = 0 and only (gradT II)_{0,11} = 1
        # the jet's y' y_n terms are -+2 y'_0 y_n E_11, whatever y'_1 and y'_2
        G = np.zeros((3, 3, 3))
        G[0, 1, 1] = 1.0
        jet = fermi_jet(BoundaryPointData(n=4, gradT_II=G), order=2)
        yp, yn = np.array([0.3, -0.7, 0.5]), 0.2
        E11 = np.zeros((3, 3))
        E11[1, 1] = 1.0
        np.testing.assert_array_equal(jet.evaluate("g_lower", yp, yn),
                                      np.eye(3) - 2.0 * yp[0] * yn * E11)
        np.testing.assert_array_equal(jet.evaluate("g_upper", yp, yn),
                                      np.eye(3) + 2.0 * yp[0] * yn * E11)

    def test_order_flag(self):
        d = rng_data(5)
        with pytest.raises(ValueError):
            fermi_jet(d, order=3)
        # order 1 keeps the constant and y_n terms of each list, no Ricbar or Scal_g
        terms = fermi_jet(d, order=1).terms()
        for name in ("sqrt_g", "g_upper", "g_lower"):
            assert [(px, py) for px, py, _ in terms[name]] == [(0, 0), (0, 1)]
        assert [(px, py) for px, py, _ in terms["bdy"]] == [(0, 0)]
        assert not terms["ric_bar"].any()
        assert fermi_jet(d, order=1).scal == 0.0 and fermi_jet(d).scal == d.scal_ambient
        full = fermi_jet(d, order=2).terms()
        for name in ("sqrt_g", "g_upper", "g_lower", "bdy"):
            for low, high in zip(terms[name], full[name]):
                assert low[:2] == high[:2] and np.array_equal(low[2], high[2])


class TestBoundaryAreaElement:
    def test_flat(self):
        d = BoundaryPointData(n=4)
        assert fermi_jet(d).evaluate("bdy", [0.3, -0.2, 0.1]) == 1.0

    def test_isotropic_ric(self):
        # Ricbar = c Id at |y'|^2 = s gives 1 - c s / 6
        n, c = 6, 0.9
        m = n - 1
        scal = c * m  # constant-curvature closure with Ricbar = c Id
        d = BoundaryPointData(n=n, scal_bdy=scal)
        yp = np.zeros(m); yp[0] = 0.5; yp[1] = 0.3
        s = float(yp @ yp)
        assert fermi_jet(d).evaluate("bdy", yp) == pytest.approx(1.0 - c * s / 6.0, rel=1e-12)

    def test_ball_n3_against_exact_sphere(self):
        geo = geometry_catalog("euclidean-ball", 3)
        jet = fermi_jet(geo.data, order=2)
        r = 0.1
        exact = geo.exact_boundary_density(r)
        approx = jet.evaluate("bdy", np.array([r, 0.0]))
        assert abs(approx - exact) < 1e-3


class TestCurvatureCombinations:
    def test_renormalized_mass_zero_data(self, constants, channel_fit_n5):
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2 = channel_fit_n5.kappa1, channel_fit_n5.kappa2
        val, parts = renormalized_mass(BoundaryPointData(n=5), C)
        assert val == 0.0

    def test_ring_channel_sign(self, constants, channel_fit_n5):
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2 = channel_fit_n5.kappa1, channel_fit_n5.kappa2
        data = geometry_catalog("anisotropic-cylinder-like", 5, scale=1.0).data
        val, parts = renormalized_mass(data, C)
        assert parts["II_ring"] == pytest.approx(C.kappa3 * 2.0, rel=1e-12)
        assert parts["II_ring"] < 0

    def test_h_independence(self, constants, channel_fit_n5):
        # perturbing H at fixed (II_ring, ric, scal) leaves the mass unchanged
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2 = channel_fit_n5.kappa1, channel_fit_n5.kappa2
        m = 4
        base = np.diag([1.0, -1.0, 0.0, 0.0])
        d1 = BoundaryPointData(n=5, II=base, ric_nn=0.3, scal_bdy=0.7)
        d2 = BoundaryPointData(n=5, II=base + 0.9 * np.eye(m) / m * m / m,
                               ric_nn=0.3, scal_bdy=0.7)
        # adding a pure-trace part changes H but not II_ring
        d2 = BoundaryPointData(n=5, II=base + (0.9 / m) * np.eye(m),
                               ric_nn=0.3, scal_bdy=0.7)
        assert d1.II_ring_sq == pytest.approx(d2.II_ring_sq, abs=1e-12)
        v1, _ = renormalized_mass(d1, C)
        v2, _ = renormalized_mass(d2, C)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_mass_requires_constants(self, constants):
        import copy
        C = copy.copy(constants[6])
        C.kappa1 = C.kappa2 = None
        with pytest.raises(ValueError, match="unfit"):
            renormalized_mass(BoundaryPointData(n=6), C)

    def test_theta_channels(self, constants):
        import copy
        C = copy.copy(constants[6])
        with pytest.raises(ValueError, match="unconfigured"):
            theta_coefficient(BoundaryPointData(n=6), C)
        C.alpha_channels = (2.0, 3.0, 5.0, 7.0)
        zero, _ = theta_coefficient(BoundaryPointData(n=6), C)
        assert zero == 0.0
        umb = BoundaryPointData(n=6, II=np.eye(5), dnu_ric_nn=1.1, dnu_scal_bdy=-0.4)
        val, parts = theta_coefficient(umb, C)
        assert parts["dnu_IIring_IIring"] == 0.0
        assert parts["lap_H"] == 0.0
        assert val == pytest.approx(2.0 * 1.1 + 3.0 * (-0.4), rel=1e-12)
        only2 = BoundaryPointData(n=6, dnu_scal_bdy=1.0)
        val2, _ = theta_coefficient(only2, C)
        assert val2 == pytest.approx(3.0, rel=1e-12)

    def test_theta_warns_below_n6(self, constants):
        import copy
        C = copy.copy(constants[5])
        C.alpha_channels = (1.0, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning, match="n >= 6"):
            theta_coefficient(BoundaryPointData(n=5), C)


class TestCatalog:
    def test_ball_invariants(self):
        for n in (2, 3, 5):
            geo = geometry_catalog("euclidean-ball", n)
            assert geo.data.H == pytest.approx(n - 1)
            assert geo.data.II_ring_sq == pytest.approx(0.0, abs=1e-14)
            assert np.allclose(geo.data.II, np.eye(n - 1))
            assert np.allclose(geo.exact_fermi_gab(0.25), (0.75) ** 2 * np.eye(n - 1))

    def test_channel_probes(self):
        aniso = geometry_catalog("anisotropic-cylinder-like", 6)
        assert aniso.data.H == 0.0
        assert aniso.data.II_ring_sq == pytest.approx(2.0)
        ric = geometry_catalog("ricci-only", 6)
        assert ric.data.ric_nn == 1.0 and ric.data.H == 0.0
        scal = geometry_catalog("boundary-scal-only", 6)
        assert scal.data.scal_bdy == 1.0 and scal.data.II_sq == 0.0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="euclidean-ball"):
            geometry_catalog("mystery", 5)

    def test_every_listed_name_builds(self):
        for name in CATALOG_NAMES:
            assert geometry_catalog(name, 5).name.startswith(name)

    def test_interior_point(self):
        d = InteriorPointData(n=3, scal=6.0)
        assert d.ric_trace == pytest.approx(6.0)


class TestJetDeterminism:
    def test_bit_reproducible(self):
        d1 = rng_data(6, seed=11)
        d2 = rng_data(6, seed=11)
        j1, j2 = fermi_jet(d1, order=2), fermi_jet(d2, order=2)
        y = np.array([0.13, -0.25, 0.4, 0.02, -0.17])
        assert np.array_equal(j1.evaluate("g_upper", y, 0.21), j2.evaluate("g_upper", y, 0.21))
        assert j1.evaluate("sqrt_g", y, 0.21) == j2.evaluate("sqrt_g", y, 0.21)


# 16 equally spaced directions of S^1 average every trigonometric polynomial
# of degree < 16 exactly; the jet fields here have degree <= 6 in omega
_CIRCLE = [np.array([math.cos(a), math.sin(a)]) for a in 2 * math.pi * np.arange(16) / 16]
_POINTS = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.25), (0.4, 0.7), (1.1, 0.35)]


def _poly(P, r, t):
    return sum(c * r ** i * t ** j for (i, j), c in P.items())


def _assert_reduction_matches(jet, P_tan, P_sca, P_bdy=None):
    for r, t in _POINTS:
        sca = np.mean([jet.evaluate("sqrt_g", r * w, t) for w in _CIRCLE])
        tan = np.mean([w @ jet.evaluate("g_upper", r * w, t) @ w
                       * jet.evaluate("sqrt_g", r * w, t) for w in _CIRCLE])
        assert sca == pytest.approx(_poly(P_sca, r, t), rel=1e-14, abs=1e-14)
        assert tan == pytest.approx(_poly(P_tan, r, t), rel=1e-14, abs=1e-14)
        if P_bdy is not None:
            bdy = np.mean([jet.evaluate("bdy", r * w) for w in _CIRCLE])
            assert bdy == pytest.approx(_poly(P_bdy, r, 0.0), rel=1e-14, abs=1e-14)


class TestPointwiseJetMatchesReduction:
    """The circle average of ``evaluate`` is the polynomial the energy
    reduction integrates: P_sca, P_tan and P_bdy of ``energy._reduce_jet``."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", [c for c in CATALOG_NAMES if c != "custom"] + ["random"])
    def test_boundary_jet(self, name, order):
        from bubblelab.energy import _reduce_jet
        data = rng_data(3, seed=5) if name == "random" else geometry_catalog(name, 3).data
        jet = fermi_jet(data, order=order)
        _assert_reduction_matches(jet, *_reduce_jet(jet.terms())[:3])

    @pytest.mark.parametrize("ric", [None, np.array([[0.7, -0.4], [-0.4, -1.3]])],
                             ids=["isotropic", "anisotropic"])
    def test_interior_point(self, ric):
        from bubblelab.energy import _reduce_jet
        scal = 1.9 if ric is None else float(np.trace(ric))
        point = InteriorPointData(n=2, scal=scal, ric=ric)
        P_tan, P_sca, P_bdy = _reduce_jet(point.terms())[:3]
        assert not P_bdy
        _assert_reduction_matches(point, P_tan, P_sca)


_ENTRIES = [("euclidean-ball", {"radius": 2.0}), ("flat-halfspace", {}),
            ("umbilic-sphere-cap", {"curvature": 0.7}), ("anisotropic-cylinder-like", {}),
            ("ricci-only", {"value": 2.0}), ("boundary-scal-only", {"value": 1.0}),
            ("h-only", {"H": 0.5})]


class TestCatalogMemo:
    @pytest.mark.parametrize("name, kw", _ENTRIES, ids=[e[0] for e in _ENTRIES])
    def test_copy_matches_a_fresh_build(self, name, kw):
        fresh = geometry._catalog_entry.__wrapped__(name, 5, tuple(sorted(kw.items())))
        for _ in range(2):
            geo = geometry_catalog(name, 5, **kw)
            assert geo.name == fresh.name
            assert vars(geo.data).keys() == vars(fresh.data).keys()
            for key, value in vars(fresh.data).items():
                got = getattr(geo.data, key)
                assert type(got) is type(value)
                assert np.array_equal(got, value), key

    def test_results_are_independent(self):
        first = geometry_catalog("umbilic-sphere-cap", 5, curvature=0.7)
        want = {key: np.copy(value) for key, value in vars(first.data).items()}
        for key, value in vars(first.data).items():
            if isinstance(value, np.ndarray):
                value += 1.0                      # in place
        first.data.ric_nn, first.data.label = 3.0, "changed"
        again = geometry_catalog("umbilic-sphere-cap", 5, curvature=0.7)
        assert again.data is not first.data
        for key, value in want.items():
            assert np.array_equal(getattr(again.data, key), value), key

    def test_built_once_per_key(self):
        geometry._catalog_entry.cache_clear()
        for _ in range(3):
            geometry_catalog("h-only", 6, H=0.25)
        geometry_catalog("h-only", 6, H=0.5)
        info = geometry._catalog_entry.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_custom_not_memoized(self):
        II = np.diag([1.0, 2.0, 3.0])
        a = geometry_catalog("custom", 4, II=II)
        b = geometry_catalog("custom", 4, II=2.0 * II)
        assert a.data.H == 6.0 and b.data.H == 12.0
