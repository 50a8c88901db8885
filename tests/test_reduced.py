import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from bubblelab.reduced import (
    _GRAD_TOL, CircleDomain, TorusDomain, ExpressionField, GridField,
    InteractionKernel, Configuration, CollisionError, center_potential,
    reduced_functional, scale_jacobian, critical_point_search, quantized_levels,
    balance_law_residual,
)


class CubicSplineField(GridField):
    """Reference grid field on scipy's periodic ``CubicSpline``."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        theta = np.linspace(0.0, 2.0 * math.pi, samples.size + 1)
        self._cs = CubicSpline(theta, np.append(samples, samples[0]), bc_type="periodic")
        self.dim = 1

    def values(self, X):
        return self._cs(np.asarray(X, dtype=float)[:, 0] % (2.0 * math.pi))

    def derivatives(self, X):
        t = np.asarray(X, dtype=float)[:, 0] % (2.0 * math.pi)
        return self._cs(t, 1)[:, None], self._cs(t, 2)[:, None, None]


def circle_config(angles, scales, **kw):
    return Configuration(CircleDomain(), np.asarray(angles, float).reshape(-1, 1),
                         np.asarray(scales, float), **kw)


class TestDomainsAndKernel:
    def test_circle_distance_wraps(self):
        d = CircleDomain()
        assert d.distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)

    def test_torus_distance(self):
        d = TorusDomain()
        a, b = np.array([0.1, 6.2]), np.array([6.2, 0.1])
        assert d.distance(a, b) == pytest.approx(math.hypot(
            2 * math.pi - 6.1, 2 * math.pi - 6.1))

    def test_kernel_symmetry_and_blowup(self):
        for n in (3, 4, 6):
            ker = InteractionKernel(n=n, a=1.3)
            assert ker.value(0.4) == ker.value(0.4)
            ds = np.array([1e-1, 1e-2, 1e-3])
            slope = np.polyfit(np.log(ds), np.log([ker.value(d) for d in ds]), 1)[0]
            assert slope == pytest.approx(-(1.0 if n == 3 else n - 2), rel=1e-9)
            with pytest.raises(CollisionError):
                ker.value(0.0)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            InteractionKernel(n=2)
        with pytest.raises(ValueError):
            InteractionKernel(n=5, a=-1.0)


class TestReducedFunctional:
    def test_eps_to_zero_limit(self, constants):
        cfg = circle_config([0.0, 2.0, 4.0], [1e-9] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = reduced_functional(cfg, InteractionKernel(n=6), constants[6])
        assert val == pytest.approx(3.0, abs=1e-12)

    def test_k1_h_only_formula(self, constants):
        C = constants[5]
        h = ExpressionField("0.8 + 0*theta")
        eps = 1e-3
        cfg = circle_config([1.0], [eps], h_field=h)
        val = reduced_functional(cfg, InteractionKernel(n=5), C)
        assert val == pytest.approx(1.0 + 4.0 * C.rho_conf * 0.8 * eps, rel=1e-12)

    def test_k2_interaction_double_count(self, constants):
        C = constants[6]
        eps, d = 1e-2, 2.0
        cfg = circle_config([0.0, d], [eps, eps])
        ker = InteractionKernel(n=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = reduced_functional(cfg, ker, C)
        expected = 2.0 + 2.0 * 5.0 * C.c_conf * eps ** 4 * ker.value(d)
        assert val == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(range(4)))
    def test_relabeling_invariance(self, constants, perm):
        C = constants[6]
        mass = ExpressionField("cos(theta)")
        angles = np.array([0.3, 1.7, 3.1, 5.0])
        scales = np.array([1e-3, 2e-3, 1.5e-3, 2.5e-3])
        ker = InteractionKernel(n=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1 = reduced_functional(circle_config(angles, scales, mass_field=mass), ker, C)
            v2 = reduced_functional(circle_config(angles[list(perm)],
                                                  scales[list(perm)],
                                                  mass_field=mass), ker, C)
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_collision_error(self, constants):
        cfg = circle_config([1.0, 1.0], [1e-3, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(CollisionError):
                reduced_functional(cfg, InteractionKernel(n=6), constants[6])

    def test_separation_warning(self, constants):
        cfg = circle_config([0.0, 1e-2], [1e-2, 1e-2])
        with pytest.warns(UserWarning, match="separation"):
            reduced_functional(cfg, InteractionKernel(n=6), constants[6])

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_interaction_block_scaling(self, constants, n):
        # pure interaction (H = mass = 0) scales like eps^(n-2)
        C = constants[n]
        ker = InteractionKernel(n=n)
        epss = 1e-2 * 0.5 ** np.arange(5)
        vals = []
        for e in epss:
            cfg = circle_config([0.0, 3.0], [e, e])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals.append(reduced_functional(cfg, ker, C) - 2.0)
        slope = np.polyfit(np.log(epss), np.log(np.abs(vals)), 1)[0]
        assert abs(slope - (n - 2)) / (n - 2) < 0.05

    def test_center_potential_additivity(self):
        mass = ExpressionField("cos(theta)")
        cfg = circle_config([0.0, 2.0, 4.0], [1e-3] * 3, mass_field=mass)
        assert center_potential(cfg) == pytest.approx(
            math.cos(0) + math.cos(2) + math.cos(4), rel=1e-12)

    def test_center_potential_identical_centers_value(self):
        mass = ExpressionField("0.37 + 0*theta")
        cfg = circle_config([0.1, 2.1, 4.1], [1e-3] * 3, mass_field=mass)
        assert center_potential(cfg) == pytest.approx(3 * 0.37, rel=1e-12)


class TestScaleJacobian:
    def test_k1_limit(self, constants):
        C = constants[6]
        mass = ExpressionField("0.7 + 0*theta")
        rep = scale_jacobian(circle_config([1.0], [1e-6], mass_field=mass),
                             InteractionKernel(n=6), C)
        assert rep.matrix[0, 0] == pytest.approx(2.0 * C.S_star * 0.7, rel=1e-4)
        assert rep.gershgorin_radii[0] == 0.0

    def test_k3_diagonal_dominance(self, constants):
        C = constants[6]
        mass = ExpressionField("1.0 + 0.5*cos(theta)")  # |mass| >= 0.5
        cfg = circle_config([0.3, 2.0, 4.2], [1e-3] * 3, mass_field=mass)
        rep = scale_jacobian(cfg, InteractionKernel(n=6), C)
        assert rep.diagonally_dominant
        assert np.allclose(rep.diagonal, rep.limit_diagonal, rtol=1e-3)

    def test_degenerate_mass_no_dominance(self, constants):
        C = constants[6]
        cfg = circle_config([0.3, 2.0, 4.2], [1e-3] * 3)  # mass identically 0
        rep = scale_jacobian(cfg, InteractionKernel(n=6), C)
        # only the O(eps^(n-4)) interaction residue survives on the diagonal
        assert np.allclose(rep.diagonal, 0.0, atol=1e-5)
        assert np.allclose(rep.limit_diagonal, 0.0)
        assert not rep.diagonally_dominant

    def test_matches_finite_differences(self, constants):
        # analytic Jacobian vs central differences of the scale gradient,
        # Richardson-verified O(h^2)
        C = constants[6]
        n = 6
        mass = ExpressionField("1.0 + 0.5*cos(theta)")
        ker = InteractionKernel(n=n)
        angles = [0.3, 2.0, 4.2]
        eps0 = np.array([1e-3, 1.3e-3, 0.8e-3])
        rep = scale_jacobian(circle_config(angles, eps0, mass_field=mass), ker, C)
        gamma = 1.0 / (n - 1)

        def J(eps):
            cfg = circle_config(angles, eps, mass_field=mass)
            return C.S_star * reduced_functional(cfg, ker, C) ** gamma

        def fd_jac(h):
            # direct central second differences of the scalar functional
            out = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    if i == j:
                        ep, em = eps0.copy(), eps0.copy()
                        ep[i] += h; em[i] -= h
                        out[i, i] = (J(ep) - 2 * J(eps0) + J(em)) / h ** 2
                    else:
                        epp, epm, emp, emm = (eps0.copy() for _ in range(4))
                        epp[i] += h; epp[j] += h
                        epm[i] += h; epm[j] -= h
                        emp[i] -= h; emp[j] += h
                        emm[i] -= h; emm[j] -= h
                        out[i, j] = (J(epp) - J(epm) - J(emp) + J(emm)) / (4 * h ** 2)
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e1 = np.max(np.abs(fd_jac(4e-4) - rep.matrix))
            e2 = np.max(np.abs(fd_jac(2e-4) - rep.matrix))
        assert e1 < 1e-4 * np.max(np.abs(rep.matrix))
        assert e2 < 0.3 * e1 + 1e-7  # O(h^2) Richardson consistency

    @pytest.mark.parametrize("n", [5, 6])
    def test_interaction_part_matches_differences(self, constants, n):
        # at scales 0.3/0.4/0.2 and a weak mass field the interaction is
        # 20-30% of every entry: the analytic Jacobian against central
        # differences of the scale gradient, itself central differences of J_k
        # (measured error 2.5e-7 of the largest entry; halving the interaction
        # term of dF/d eps moves it by 9e-3 or more)
        C = constants[n]
        mass = ExpressionField("0.1 + 0.05*cos(theta)")
        ker = InteractionKernel(n=n)
        angles, eps0 = [0.3, 2.0, 4.2], np.array([0.3, 0.4, 0.2])

        def J(eps):
            cfg = circle_config(angles, eps, mass_field=mass)
            return C.S_star * reduced_functional(cfg, ker, C) ** (1.0 / (n - 1))

        def grad(eps, h=1e-5):
            return np.array([(J(eps + h * u) - J(eps - h * u)) / (2 * h) for u in np.eye(3)])

        h = 2e-4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fd = np.array([(grad(eps0 + h * u) - grad(eps0 - h * u)) / (2 * h)
                           for u in np.eye(3)])
            rep = scale_jacobian(circle_config(angles, eps0, mass_field=mass), ker, C)
            alone = scale_jacobian(circle_config(angles, eps0, mass_field=mass),
                                   InteractionKernel(n=n, a=1e-300), C).matrix
        assert np.min(np.abs(rep.matrix - alone) / np.abs(rep.matrix)) > 0.1
        assert np.max(np.abs(fd - rep.matrix)) <= 2e-6 * np.max(np.abs(rep.matrix))


def per_seed_search(field, k, domain, seeds, seed, grad_tol=1e-8, max_iter=600):
    """Reference: Newton from one start at a time with scalar field calls, on
    the search's draws; per seed, the limits of its k starts (None where a
    start does not reach grad_tol / sqrt(k) or meets a singular Hessian)."""
    dim = domain.dim
    tol = grad_tol / math.sqrt(k)
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, 2 * math.pi, size=(8, k * dim))      # the constant-field probes
    found = []
    for _ in range(seeds):
        limits = []
        for x in rng.uniform(0.0, 2 * math.pi, size=k * dim).reshape(k, dim):
            for _ in range(max_iter):
                g = field.grad(x)
                if np.linalg.norm(g) <= tol:
                    break
                try:
                    step = np.linalg.solve(field.hess(x) + 1e-12 * np.eye(dim), -g)
                except np.linalg.LinAlgError:
                    x = None
                    break
                if np.linalg.norm(step) > 1.0:
                    step *= 1.0 / np.linalg.norm(step)
                x = x + step
            converged = x is not None and np.linalg.norm(field.grad(x)) <= tol
            limits.append(x % (2 * math.pi) if converged else None)
        found.append(limits)
    return found


def same_configuration(a, b, tol):
    """Equal center sets up to relabeling and 2 pi."""
    return any(np.max(np.abs((a[list(p)] - b + math.pi) % (2 * math.pi) - math.pi)) <= tol
               for p in itertools.permutations(range(len(a))))


class TestCriticalPointSearch:
    @pytest.mark.parametrize("expr, k, dim, seed", [
        ("cos(2*theta)", 2, 1, 0), ("cos(2*theta)", 2, 1, 17),
        ("sin(theta) + 0.3*cos(3*theta)", 2, 1, 5),
        ("cos(theta1) + 0.5*sin(theta2)", 2, 2, 3),
    ])
    def test_matches_per_seed_reference(self, expr, k, dim, seed):
        domain = TorusDomain() if dim == 2 else CircleDomain()
        field = ExpressionField(expr, dim=dim)
        pts = critical_point_search(field, k, domain, seeds=8, seed=seed)
        ref = per_seed_search(field, k, domain, seeds=8, seed=seed)
        limits = [x for row in ref for x in row if x is not None]
        configs = [np.array(row) for row in ref if all(x is not None for x in row)
                   and all(domain.distance(row[i], row[j]) > 1e-6
                           for i, j in itertools.combinations(range(k), 2))]
        assert pts and configs
        for p in pts:
            # every center is the limit of some start
            assert all(any(domain.distance(c, x) <= 1e-10 for x in limits) for c in p.centers)
            assert any(same_configuration(p.centers, r, 1e-6) for r in configs)
        for r in configs:
            assert any(same_configuration(p.centers, r, 1e-6) for p in pts)

    def test_cos_single_center(self):
        pts = critical_point_search(ExpressionField("cos(theta)"), 1, seeds=16)
        locs = sorted(float(p.centers[0, 0]) % (2 * math.pi) for p in pts)
        assert len(pts) == 2
        assert locs[0] == pytest.approx(0.0, abs=1e-6) or locs[0] == pytest.approx(2 * math.pi, abs=1e-6)
        assert locs[1] == pytest.approx(math.pi, abs=1e-6)
        by_val = {round(p.value, 6): p for p in pts}
        assert by_val[1.0].inertia == (1, 0, 0)   # maximum
        assert by_val[-1.0].inertia == (0, 0, 1)  # minimum

    def test_cos2_pair_products(self):
        # critical configurations of W_2 are unordered pairs of distinct
        # single-center critical points of cos(2 theta)
        pts = critical_point_search(ExpressionField("cos(2*theta)"), 2, seeds=64)
        assert len(pts) == 6
        singles = {0.0, math.pi / 2, math.pi, 3 * math.pi / 2}
        for p in pts:
            for th in p.centers.ravel():
                d = min(abs((th % (2 * math.pi)) - s) for s in singles)
                d = min(d, abs((th % (2 * math.pi)) - 2 * math.pi))
                assert d < 1e-6
        vals = sorted(round(p.value, 8) for p in pts)
        assert vals[0] == -2.0 and vals[-1] == 2.0

    def test_gradient_tolerance(self):
        pts = critical_point_search(ExpressionField("cos(theta)"), 1, seeds=8)
        assert all(p.grad_norm <= 1e-8 for p in pts)
        # each center stops at _GRAD_TOL / sqrt(k), so the joined gradient of
        # a configuration stays within _GRAD_TOL (a stop at _GRAD_TOL per
        # center breaks it at seeds 104 and 163 here, and in the k = 3 case)
        f = ExpressionField("cos(2*theta)")
        for s in range(200):
            pts = critical_point_search(f, 2, seeds=32, seed=s)
            assert pts and all(p.grad_norm <= _GRAD_TOL for p in pts)
        pts = critical_point_search(ExpressionField("sin(theta) + 0.3*cos(3*theta)"), 3,
                                    seeds=32, seed=4)
        assert pts and all(p.grad_norm <= _GRAD_TOL for p in pts)

    @pytest.mark.parametrize("N", [64, 501])
    def test_one_ulp_moves_no_configuration(self, N):
        # sin theta + 0.3 cos 3 theta has two close pairs of critical points,
        # near (0.47, 0.72) and (3.62, 3.86); moving every sample by one ulp
        # either way leaves the configurations as they are
        theta = np.linspace(0, 2 * math.pi, N, endpoint=False)
        y = np.sin(theta) + 0.3 * np.cos(3 * theta)
        base = critical_point_search(GridField(y), 2, seeds=32, seed=0)
        assert base
        for moved in (np.nextafter(y, np.inf), np.nextafter(y, -np.inf)):
            pts = critical_point_search(GridField(moved), 2, seeds=32, seed=0)
            assert len(pts) == len(base)
            for p in pts:
                match = [q for q in base if same_configuration(p.centers, q.centers, 1e-9)]
                assert len(match) == 1
                assert (p.inertia, p.degenerate) == (match[0].inertia, match[0].degenerate)

    def test_constant_field_degenerate(self):
        pts = critical_point_search(ExpressionField("1.0 + 0*theta"), 1, seeds=4)
        assert len(pts) == 1 and pts[0].degenerate

    def test_constant_expression_broadcast(self):
        f = ExpressionField("1.0")
        assert f.values(np.zeros((5, 1))).shape == (5,)
        pts = critical_point_search(f, 1, seeds=4)
        assert len(pts) == 1 and pts[0].degenerate and pts[0].inertia == (0, 1, 0)

    def test_batched_rows_match_one_point_calls(self):
        f = ExpressionField("sin(theta1) * cos(2*theta2) + theta1**2", dim=2)
        X = np.random.default_rng(5).uniform(0.0, 2 * math.pi, size=(7, 2))
        vals, (grads, hess) = f.values(X), f.derivatives(X)
        for r, x in enumerate(X):
            assert vals[r] == f.value(x)
            assert np.array_equal(grads[r], f.grad(x))
            assert np.array_equal(hess[r], f.hess(x))

    def test_torus_sum_of_cosines(self):
        f = ExpressionField("cos(theta1) + cos(theta2)", dim=2)
        pts = critical_point_search(f, 1, TorusDomain(), seeds=32)
        assert sorted(p.inertia for p in pts) == [(0, 0, 2), (1, 0, 1), (1, 0, 1), (2, 0, 0)]
        assert not any(p.degenerate for p in pts)
        dom = TorusDomain()
        for p in pts:
            assert min(dom.distance(p.centers[0], [a, b]) for a in (0.0, math.pi)
                       for b in (0.0, math.pi)) < 1e-6

    def test_singular_hessian_drops_only_that_seed(self):
        # the search draws 8 probes, then one start per seed; the Hessian is
        # made exactly singular (H + 1e-12 = 0) at the first seed's start
        rng = np.random.default_rng(0)
        rng.uniform(0.0, 2 * math.pi, size=(8, 1))
        start = rng.uniform(0.0, 2 * math.pi, size=(1, 1))[0, 0]

        class Trap(ExpressionField):
            def derivatives(self, X):
                g, H = super().derivatives(X)
                H[np.asarray(X)[:, 0] == start] = -1e-12
                return g, H

        assert critical_point_search(Trap("cos(theta)"), 1, seeds=1) == []
        pts = critical_point_search(Trap("cos(theta)"), 1, seeds=16)
        assert sorted(p.inertia for p in pts) == [(0, 0, 1), (1, 0, 0)]

    def test_cubic_degenerate_zeros(self):
        # W' = -3 cos^2 sin: Morse zeros at 0 and pi, degenerate ones
        # (W'' = 0) at pi/2 and 3 pi/2, where Newton converges linearly
        pts = critical_point_search(ExpressionField("cos(theta)**3"), 1, seeds=64)
        assert len(pts) == 4
        dom = CircleDomain()
        for p in pts:
            x = p.centers[0, 0]
            on_degenerate = min(dom.distance(x, math.pi / 2),
                                dom.distance(x, 3 * math.pi / 2)) < 1e-3
            assert p.degenerate == on_degenerate
            assert p.grad_norm <= 1e-8
        assert sum(p.degenerate for p in pts) == 2
        assert sorted(p.inertia for p in pts) == [(0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize("N", [64, 501])
    def test_grid_field_search_matches_cubic_spline_reference(self, N):
        samples = np.cos(2 * np.linspace(0, 2 * math.pi, N, endpoint=False))
        pts = critical_point_search(GridField(samples), 2, seeds=64, seed=3)
        ref = critical_point_search(CubicSplineField(samples), 2, seeds=64, seed=3)
        assert len(pts) == len(ref) == 6
        # the same points, up to the order of points with equal values
        for p in pts:
            match = [r for r in ref if same_configuration(p.centers, r.centers, 1e-10)]
            assert len(match) == 1
            r = match[0]
            assert p.inertia == r.inertia and p.degenerate == r.degenerate
            assert p.value == pytest.approx(r.value, abs=1e-12)

    def test_grid_field_roundtrip(self):
        theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        f = GridField(np.cos(2 * theta))
        pts = critical_point_search(f, 1, seeds=16)
        locs = [float(p.centers[0, 0]) for p in pts]
        dom = CircleDomain()
        assert len(locs) == 4
        for e in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            assert min(dom.distance(th, e) for th in locs) < 1e-4


class TestGridFieldSpline:
    @pytest.mark.parametrize("N", [8, 64, 501])
    def test_matches_periodic_cubic_spline(self, N):
        # the two solve the same spline system with different rounding, which
        # the knot spacing h = 2 pi/N amplifies as 1/h and 1/h^2 in the
        # derivatives; scaled by each quantity's size the gaps stay at 1e-14
        rng = np.random.default_rng(N)
        samples = rng.standard_normal(N)
        ref = CubicSplineField(samples)
        f = GridField(samples)
        t = np.concatenate([rng.uniform(0.0, 2 * math.pi, 4000),
                            np.linspace(0, 2 * math.pi, N, endpoint=False)])[:, None]
        (g, H), (rg, rH) = f.derivatives(t), ref.derivatives(t)
        v, rv = f.values(t), ref.values(t)
        assert np.max(np.abs(v - rv)) <= 2e-14 * np.max(np.abs(rv))
        assert np.max(np.abs(g - rg)) <= 1e-13 * np.max(np.abs(rg))
        assert np.max(np.abs(H - rH)) <= 2e-13 * np.max(np.abs(rH))

    def test_interpolates_and_is_periodic(self):
        samples = np.random.default_rng(1).standard_normal(12)
        f = GridField(samples)
        knots = np.linspace(0, 2 * math.pi, 12, endpoint=False)[:, None]
        assert np.allclose(f.values(knots), samples, rtol=0, atol=1e-15)
        shifted = knots + 2 * math.pi
        assert np.allclose(f.values(shifted), samples, rtol=0, atol=1e-14)
        assert np.allclose(f.derivatives(shifted)[0], f.derivatives(knots)[0], rtol=1e-12)

    def test_reproduces_a_trigonometric_field(self):
        theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        f = GridField(np.sin(theta) + 0.3 * np.cos(3 * theta))
        t = np.linspace(0, 2 * math.pi, 1001)[:, None]
        g, H = f.derivatives(t)
        x = t[:, 0]
        assert np.max(np.abs(f.values(t) - (np.sin(x) + 0.3 * np.cos(3 * x)))) < 1e-7
        assert np.max(np.abs(g[:, 0] - (np.cos(x) - 0.9 * np.sin(3 * x)))) < 1e-4
        assert np.max(np.abs(H[:, 0, 0] - (-np.sin(x) - 2.7 * np.cos(3 * x)))) < 2e-2


class TestQuantizedLevels:
    def test_k1(self, constants):
        assert quantized_levels(1, 5, constants[5].S_star) == constants[5].S_star

    def test_k8_n4_doubles(self, constants):
        S = constants[4].S_star
        assert quantized_levels(8, 4, S) == pytest.approx(2.0 * S, rel=1e-12)

    def test_strictly_increasing(self, constants):
        S = constants[6].S_star
        levels = [quantized_levels(k, 6, S) for k in range(1, 12)]
        assert np.all(np.diff(levels) > 0)

    def test_k_validation(self, constants):
        with pytest.raises(ValueError):
            quantized_levels(0, 5, 1.0)


class TestBalanceLaw:
    def test_k1_critical_point_of_H(self, constants):
        C = constants[5]
        h = ExpressionField("cos(theta)")
        cfg = circle_config([0.0], [1e-3], h_field=h)  # theta = 0 is critical
        res = balance_law_residual(cfg, InteractionKernel(n=5), C)
        assert abs(res[0, 0]) < 1e-9

    @pytest.mark.parametrize("n", [5, 6])
    def test_interaction_term_decay(self, constants, n):
        # residual of a far-separated pair with flat H decays like eps^(n-3)
        C = constants[n]
        ker = InteractionKernel(n=n)
        epss = 1e-2 * 0.5 ** np.arange(4)
        vals = []
        for e in epss:
            cfg = circle_config([0.0, 3.0], [e, e])
            res = balance_law_residual(cfg, ker, C)
            vals.append(abs(res[0, 0]))
        slope = np.polyfit(np.log(epss), np.log(vals), 1)[0]
        assert slope == pytest.approx(n - 3, rel=1e-6)

    @pytest.mark.parametrize("n", [5, 6])
    def test_is_center_gradient_of_functional(self, constants, n):
        # with no mass field, d F_k / d x_i = (n-1) eps_i (balance law)_i; the
        # scales are large enough that the interaction is 7-24% of the residual
        C = constants[n]
        ker = InteractionKernel(n=n)
        H = ExpressionField("0.3*sin(theta) + 0.1*cos(2*theta)")
        angles, eps = np.array([0.3, 2.0, 4.2]), np.array([0.3, 0.4, 0.2])

        def F(a):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return reduced_functional(circle_config(a, eps, h_field=H), ker, C)

        h = 1e-4
        fd = np.array([(F(angles + h * e) - F(angles - h * e)) / (2 * h)
                       for e in np.eye(3)]) / ((n - 1) * eps)
        res = balance_law_residual(circle_config(angles, eps, h_field=H), ker, C)[:, 0]
        assert np.max(np.abs(fd - res)) <= 1e-7 * np.max(np.abs(res))

    def test_symmetric_pair_antisymmetric(self, constants):
        C = constants[6]
        cfg = circle_config([0.0, 2.5], [1e-3, 1e-3])
        res = balance_law_residual(cfg, InteractionKernel(n=6), C)
        assert res[0, 0] == pytest.approx(-res[1, 0], rel=1e-12)
