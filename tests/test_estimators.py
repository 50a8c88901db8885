import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblelab.estimators import (
    _sweep, estimate, EstimatorScales, hat_H_single, three_scale_debias, modulated_two_point,
    ring_II_estimator, gn_boundary_H, gn_interior_scal, gauss_bonnet_recovery,
    SampledField, escobar_single_scale_sweep, escobar_three_scale_sweep,
    disk_fields_exact, annulus_fields_exact,
)
from bubblelab.geometry import BoundaryPointData, InteriorPointData, geometry_catalog, fermi_jet
from bubblelab.energy import HalfspaceEnergyModel, channel_fit_second_order, empirical_slope
from bubblelab.moments import weighted_moments, escobar_constants

coeff = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3)


class TestSingleScale:
    def test_synthetic_exact_inversion(self):
        scales = EstimatorScales(S_star=3.4, rho=1.125)
        h = 0.73
        E = scales.S_star * scales.rho * h * 2e-3
        rep = hat_H_single(E, 2e-3, scales)
        assert rep.estimate == pytest.approx(h, rel=1e-14)

    def test_flat_gives_zero(self):
        rep = hat_H_single(0.0, 1e-3, EstimatorScales(3.4, 1.1), truth=0.0)
        assert rep.estimate == 0.0 and rep.error == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            hat_H_single(1.0, -1e-3, EstimatorScales(1.0, 1.0))


class TestThreeScale:
    @settings(max_examples=30, deadline=None)
    @given(H=coeff, R=coeff, T=coeff)
    def test_polynomial_exactness(self, H, R, T):
        # exact inverse of a cubic deficit with no eps^4 term
        S, rho, eps = 2.7, 1.3, 3e-3
        E = [S * (rho * H * (k * eps) + R * (k * eps) ** 2 + T * (k * eps) ** 3)
             for k in (1, 2, 3)]
        rh, rr, rt = three_scale_debias(E[0], E[1], E[2], eps,
                                        EstimatorScales(S, rho))
        assert rh.estimate == pytest.approx(H, rel=1e-12, abs=1e-12)
        assert rr.estimate == pytest.approx(R, rel=1e-11, abs=1e-10)
        assert rt.estimate == pytest.approx(T, rel=1e-10, abs=1e-9)

    def test_quartic_remainder_exact_error_constants(self):
        # with E += S c (k eps)^4 the errors are exactly (6c/rho) eps^3,
        # 11 c eps^2 and 6 c eps (one symbolic expansion, asserted numerically)
        S, rho, H, R, T, c = 2.0, 1.5, 0.4, -0.8, 0.6, 0.9
        for eps in (4e-3, 2e-3, 1e-3):
            E = [S * (rho * H * (k * eps) + R * (k * eps) ** 2
                      + T * (k * eps) ** 3 + c * (k * eps) ** 4)
                 for k in (1, 2, 3)]
            rh, rr, rt = three_scale_debias(E[0], E[1], E[2], eps,
                                            EstimatorScales(S, rho))
            assert rh.estimate - H == pytest.approx(6 * c / rho * eps ** 3, rel=1e-6)
            assert rr.estimate - R == pytest.approx(-11 * c * eps ** 2, rel=1e-6)
            assert rt.estimate - T == pytest.approx(6 * c * eps, rel=1e-6)

    def test_quartic_orders(self):
        S, rho, H, R, T, c = 2.0, 1.5, 0.4, -0.8, 0.6, 0.9
        eps = 8e-3 * 0.5 ** np.arange(5)
        errs = {"H": [], "mass": [], "theta": []}
        for e in eps:
            E = [S * (rho * H * (k * e) + R * (k * e) ** 2
                      + T * (k * e) ** 3 + c * (k * e) ** 4) for k in (1, 2, 3)]
            rh, rr, rt = three_scale_debias(E[0], E[1], E[2], e,
                                            EstimatorScales(S, rho),
                                            truths=(H, R, T))
            errs["H"].append(rh.error)
            errs["mass"].append(rr.error)
            errs["theta"].append(rt.error)
        for key, target in (("H", 3.0), ("mass", 2.0), ("theta", 1.0)):
            assert abs(empirical_slope(eps, errs[key]) - target) <= 0.3

    def test_scale_triple_validation(self):
        with pytest.raises(ValueError, match="mismatched"):
            three_scale_debias(1.0, 1.0, 1.0, 1e-3, EstimatorScales(1.0, 1.0),
                               scale_triple=(1e-3, 2e-3, 4e-3))
        # a relative check at any eps: no absolute floor lets a triple this far off pass
        with pytest.raises(ValueError, match="mismatched"):
            three_scale_debias(1.0, 1.0, 1.0, 1e-9, EstimatorScales(1.0, 1.0),
                               scale_triple=(1e-9, 5e-9, 9e-9))
        three_scale_debias(1.0, 1.0, 1.0, 1e-9, EstimatorScales(1.0, 1.0),
                           scale_triple=(1e-9, 2 * 1e-9, 3 * 1e-9))

    def test_low_dimension_warns(self):
        with pytest.warns(UserWarning, match="n >= 7"):
            three_scale_debias(1e-3, 2e-3, 3e-3, 1e-3,
                               EstimatorScales(1.0, 1.0), n=5)


class TestModulatedTwoPoint:
    @settings(max_examples=30, deadline=None)
    @given(H=coeff, R=coeff)
    def test_quadratic_exactness(self, H, R):
        rho, eps = 1.125, 2e-3
        delta = lambda e: rho * H * e + R * e ** 2
        r1, r2 = modulated_two_point(delta(eps), delta(2 * eps), eps, rho)
        assert r1.estimate == pytest.approx(rho * H, rel=1e-12, abs=1e-12)
        assert r2.estimate == pytest.approx(R, rel=1e-11, abs=1e-10)

    def test_cubic_error_algebra(self):
        # a Theta eps^3 term produces errors exactly (-2 T eps^2, +3 T eps)
        rho, H, R, T = 1.2, 0.5, -0.4, 0.8
        for eps in (4e-3, 1e-3):
            delta = lambda e: rho * H * e + R * e ** 2 + T * e ** 3
            r1, r2 = modulated_two_point(delta(eps), delta(2 * eps), eps, rho)
            assert r1.estimate - rho * H == pytest.approx(-2 * T * eps ** 2, rel=1e-9)
            assert r2.estimate - R == pytest.approx(3 * T * eps, rel=1e-10)

    def test_jet_rates(self, halfspace_profiles):
        # measured against the exact jet series: rates (eps^2, eps)
        data = geometry_catalog("h-only", 7, H=0.5).data
        jet = fermi_jet(data, order=2, chart_radius=2.0)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[7], 30.0)
        c = model.series("escobar", order=3)
        S = model.flat("escobar")
        scales = EstimatorScales.from_model(model)
        eps = 4e-3 * 0.5 ** np.arange(4)
        e1, e2 = [], []
        for e in eps:
            d1 = model.escobar_quotient(e).deficit / S
            d2 = model.escobar_quotient(2 * e).deficit / S
            r1, r2 = modulated_two_point(d1, d2, e, scales.rho)
            e1.append(abs(r1.estimate - scales.rho * 0.5))
            e2.append(abs(r2.estimate - c[1]))
        assert abs(empirical_slope(eps, e1) - 2.0) < 0.3
        assert abs(empirical_slope(eps, e2) - 1.0) < 0.3


class TestRingII:
    def test_umbilic_gives_zero(self, constants, channel_fit_n5):
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2 = channel_fit_n5.kappa1, channel_fit_n5.kappa2
        data = geometry_catalog("umbilic-sphere-cap", 5).data
        # feed the exact mass of umbilic data: only ric/scal channels
        r_true = C.kappa1 * data.ric_nn + C.kappa2 * data.scal_bdy
        rep = ring_II_estimator(r_true, data, C)
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_inversion(self, constants, channel_fit_n5):
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2 = channel_fit_n5.kappa1, channel_fit_n5.kappa2
        data = BoundaryPointData(n=5)
        s = 1.7
        rep = ring_II_estimator(C.kappa3 * s, data, C)
        assert rep.estimate == pytest.approx(s, rel=1e-12)

    def test_anisotropic_sweep_order_two(self, halfspace_profiles):
        # |II_ring|^2-hat error order ~ 2 on the H = 0 anisotropic jet, n = 7
        n = 7
        U = halfspace_profiles[n]
        C = escobar_constants(n, weighted_moments(U, 40.0))  # fresh, not shared
        fit = channel_fit_second_order(n, U, C, R=60.0)
        C.kappa1, C.kappa2 = fit.kappa1, fit.kappa2
        geo = geometry_catalog("anisotropic-cylinder-like", n)
        sw = escobar_three_scale_sweep(geo.data, U, 60.0, 4e-3 * 0.5 ** np.arange(4))
        errs = []
        for rep in sw["reports"]["mass"]:
            ring = ring_II_estimator(rep.estimate, geo.data, C)
            errs.append(abs(ring.estimate - geo.data.II_ring_sq))
        slope = empirical_slope(4e-3 * 0.5 ** np.arange(4), errs)
        assert abs(slope - 2.0) < 0.35

    def test_kappa3_zero_rejected(self, constants):
        import copy
        C = copy.copy(constants[5])
        C.kappa1, C.kappa2, C.kappa3 = 0.0, 0.0, 0.0
        with pytest.raises(ValueError, match="kappa3"):
            ring_II_estimator(0.1, BoundaryPointData(n=5), C)


class TestGNEstimators:
    def test_boundary_synthetic_linear_exact(self, gn23):
        _, _, co = gn23
        H = 0.6
        delta = lambda e: -co.kappa_bdy * H * e  # relative deficit law
        rep = gn_boundary_H(delta(1e-3), delta(2e-3), 1e-3, 2e-3, co)
        assert rep.estimate == pytest.approx(H, rel=1e-12)

    def test_interior_synthetic_quadratic_exact(self, gn23):
        _, _, co = gn23
        scal = -1.3
        delta = lambda e: co.kappa_int * scal * e ** 2
        rep = gn_interior_scal(delta(1e-3), delta(2e-3), 1e-3, 2e-3, co.kappa_int)
        assert rep.estimate == pytest.approx(scal, rel=1e-12)

    def test_flat_gives_zero(self, gn23):
        _, _, co = gn23
        assert gn_boundary_H(0.0, 0.0, 1e-3, 2e-3, co).estimate == 0.0
        assert gn_interior_scal(0.0, 0.0, 1e-3, 2e-3, co.kappa_int).estimate == 0.0

    def test_validation(self, gn23):
        _, _, co = gn23
        with pytest.raises(ValueError):
            gn_boundary_H(0.0, 0.0, 1e-3, 1e-3, co)


class TestGaussBonnet:
    def test_disk_exact(self):
        rep = gauss_bonnet_recovery(2, *disk_fields_exact())
        assert abs(rep.estimate - 1.0) < 1e-10

    def test_annulus_exact(self):
        for r in (0.25, 0.5, 0.8):
            rep = gauss_bonnet_recovery(2, *annulus_fields_exact(r))
            assert abs(rep.estimate - 0.0) < 1e-10

    def test_integer_snapping(self):
        rep = gauss_bonnet_recovery(2, *disk_fields_exact())
        assert rep.extras["distance_to_integer"] < 1e-10

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            gauss_bonnet_recovery(3, *disk_fields_exact())

    def test_estimated_disk_fields_from_the_model_deficits(self, gn23):
        # the interior sweep at eps and the boundary sweep at (eps/2, eps/4)
        # evaluate the models at eps, eps/2 and eps/4 and their doubles; the
        # interior divides by kappa_int of its own matrix at R = 20
        from bubblelab.energy import InteriorEnergyModel
        from bubblelab.estimators import disk_fields_estimated
        from bubblelab.geometry import InteriorPointData
        from bubblelab.moments import interior_kappa
        Q, Qp, co = gn23
        eps = 1e-2
        interior, boundary = disk_fields_estimated(Q, Qp, co, eps=eps)
        inner = InteriorEnergyModel(InteriorPointData(n=2, scal=0.0), Q, 20.0)
        scal = gn_interior_scal(inner.gn_quotient(eps).deficit, inner.gn_quotient(2 * eps).deficit,
                                eps, 2 * eps, interior_kappa(inner.M, Q.p)[0])
        jet = fermi_jet(geometry_catalog("euclidean-ball", 2, radius=1.0).data, order=2)
        model = HalfspaceEnergyModel(jet, Qp, 20.0)
        d = {e: model.gn_quotient(e).deficit for e in (eps, eps / 2, eps / 4)}
        h1 = gn_boundary_H(d[eps / 2], d[eps], eps / 2, eps, co).estimate
        h2 = gn_boundary_H(d[eps / 4], d[eps / 2], eps / 4, eps / 2, co).estimate
        assert set(interior.values.tolist()) == {scal.estimate}
        assert set(boundary.values.tolist()) == {2.0 * h2 - h1}
        assert interior.weights.sum() == pytest.approx(math.pi, rel=1e-15)
        assert boundary.weights.sum() == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_cli_eps_bound_is_the_volume_element_bound(self, gn23):
        # the CLI's estimated-mode limit is where _check_jet_positivity starts
        # to fire for the disk jet and the (2, 3) near-optimizer at R = 20
        from bubblelab.cli import _GB_EPS_MAX
        _, Qp, _ = gn23
        assert Qp.shift == 2.0
        jet = fermi_jet(geometry_catalog("euclidean-ball", 2, radius=1.0).data,
                        order=2, chart_radius=2.0)
        model = HalfspaceEnergyModel(jet, Qp, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model._check_jet_positivity(_GB_EPS_MAX * (1 - 1e-12))
        with pytest.warns(UserWarning, match="volume element"):
            model._check_jet_positivity(_GB_EPS_MAX)

    def test_non_positive_volume_element_named(self, gn23):
        _, Qp, _ = gn23
        jet = fermi_jet(geometry_catalog("euclidean-ball", 2, radius=1.0).data,
                        order=2, chart_radius=25.0)
        model = HalfspaceEnergyModel(jet, Qp, 20.0)
        with pytest.raises(ValueError, match="volume element non-positive"):
            model.gn_quotient(0.5)

    @pytest.mark.filterwarnings("ignore:jet volume element")
    @pytest.mark.parametrize("order, eps, quotient", [
        (2, 1.5, "escobar_quotient"), (2, 1.5, "plain_trace_quotient"),   # trace mass < 0
        (1, 0.6, "plain_trace_quotient")])                               # Dirichlet energy < 0
    def test_non_positive_factor_named_for_every_quotient(self, order, eps, quotient,
                                                          halfspace_profiles):
        jet = fermi_jet(geometry_catalog("euclidean-ball", 5).data, order=order,
                        chart_radius=100.0)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 20.0)
        field = "trq" if order == 2 else "dirichlet"
        assert model.integral(field, eps) <= 0.0
        with pytest.raises(ValueError, match="volume element non-positive"):
            getattr(model, quotient)(np.array([1e-3, eps]))


class TestSweepsOnJets:
    def test_ball_single_scale(self, halfspace_profiles):
        ball = geometry_catalog("euclidean-ball", 5).data
        sw = escobar_single_scale_sweep(ball, halfspace_profiles[5], 40.0,
                                        2e-3 * 0.5 ** np.arange(5))
        assert sw["reports"][-1].estimate == pytest.approx(4.0, rel=0.05)
        assert 0.8 <= sw["order"] <= 1.2

    def test_flat_estimator_noise(self, halfspace_profiles):
        flat = geometry_catalog("flat-halfspace", 5).data
        sw = escobar_single_scale_sweep(flat, halfspace_profiles[5], 40.0,
                                        np.array([1e-3]))
        assert abs(sw["reports"][0].estimate) < 1e-9

    def test_scales_from_model_match_table(self, halfspace_profiles, constants):
        jet = fermi_jet(geometry_catalog("flat-halfspace", 5).data, order=2)
        model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
        sc = EstimatorScales.from_model(model)
        assert sc.S_star == constants[5].S_star_R
        assert sc.rho == constants[5].rho_conf_R


class TestGNSweepRates:
    def test_disk_boundary_H_rate(self, gn23):
        # unit circle: H = 1 recovered at first order in eps
        from bubblelab.estimators import gn_boundary_sweep
        Q, Qp, co = gn23
        ball = geometry_catalog("euclidean-ball", 2).data
        sw = gn_boundary_sweep(ball, Qp, co, 20.0, 1e-2 * 0.5 ** np.arange(5))
        assert sw["reports"][-1].estimate == pytest.approx(1.0, rel=0.05)
        assert sw["order"] >= 0.7

    def test_round_sphere_interior_scal_rate(self, gn33):
        # round-sphere jet in n = 3: Scal = n(n-1) = 6 recovered
        from bubblelab.estimators import gn_interior_sweep
        from bubblelab.geometry import InteriorPointData
        Q, _, _ = gn33
        data = InteriorPointData(n=3, scal=6.0)
        sw = gn_interior_sweep(data, Q, 20.0, 1e-2 * 0.5 ** np.arange(5))
        assert sw["reports"][-1].estimate == pytest.approx(6.0, rel=0.05)
        assert sw["order"] >= 0.7

    def test_flat_halfplane_H_zero(self, gn23):
        from bubblelab.estimators import gn_boundary_sweep
        Q, Qp, co = gn23
        flat = geometry_catalog("flat-halfspace", 2).data
        sw = gn_boundary_sweep(flat, Qp, co, 20.0, np.array([1e-2]))
        assert abs(sw["reports"][0].estimate) < 1e-9


class TestBatchedSweep:
    # one quotient call on the (multiple, base) eps array: each inversion
    # gets the deficits of per-eps calls bit for bit, since an eps gets the
    # same bits whatever array it comes in
    def test_inversions_get_the_per_eps_deficits(self, halfspace_profiles):
        data = geometry_catalog("umbilic-sphere-cap", 6, curvature=0.7).data
        model = HalfspaceEnergyModel(fermi_jet(data, order=2), halfspace_profiles[6], 30.0)
        grid = 4e-3 * 0.5 ** np.arange(5)
        scales, seen = EstimatorScales(S_star=1.0, rho=1.0), []
        _sweep(model.escobar_quotient, grid, (1, 2, 3),
               lambda e, *E: seen.append((e, E)) or (hat_H_single(E[0], e, scales),))
        assert [e for e, _ in seen] == list(grid)
        for e, E in seen:
            for k, got in zip((1, 2, 3), E):
                assert got.tobytes() == model.escobar_quotient(k * e).deficit.tobytes()

    def test_single_scale_estimates(self, halfspace_profiles):
        data = geometry_catalog("h-only", 5, H=0.5).data
        U = halfspace_profiles[5]
        grid = 2e-3 * 0.5 ** np.arange(5)
        sw = escobar_single_scale_sweep(data, U, 20.0, grid)
        model = HalfspaceEnergyModel(fermi_jet(data, order=2), U, 20.0)
        for e, rep in zip(grid, sw["reports"]):
            want = hat_H_single(model.escobar_quotient(e).deficit, e, sw["scales"]).estimate
            assert rep.estimate == want


class TestEstimatePipeline:
    # every divisor is read at the sweep's own cutoff, and equals the series
    # coefficient of its unit probe there
    @pytest.mark.parametrize("R", [1.5, 20.0, 137.0])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_escobar_divisors_are_the_unit_probe_series(self, n, R, halfspace_profiles):
        data = geometry_catalog("h-only", n, H=1.0).data
        const = estimate("H", data, R, [1e-3])["constants"]
        model = HalfspaceEnergyModel(fermi_jet(data, order=2), halfspace_profiles[n], R)
        assert const["R"] == R
        assert const["S_star_R"] == pytest.approx(model.flat("escobar"), rel=1e-13, abs=0)
        assert const["rho_conf_R"] == pytest.approx(model.series("escobar")[0], rel=1e-13, abs=0)

    @pytest.mark.parametrize("R", [2.7, 5.0, 20.0, 30.0])
    @pytest.mark.parametrize("case", ["gn23", "gn33"])
    def test_kappa_int_is_the_unit_probe_series(self, case, R, request):
        from bubblelab.estimators import gn_interior_sweep
        Q, _, co = request.getfixturevalue(case)
        sw = gn_interior_sweep(InteriorPointData(n=co.n, scal=1.0), Q, R, [1e-3])
        assert sw["kappa_int"] == pytest.approx(-sw["series"][1], rel=1e-13, abs=0)
        if R == 20.0:   # gauss-bonnet's cutoff: kappa_int(20) is the value of record
            assert sw["kappa_int"] == co.kappa_int

    def test_kappa_int_of_record_is_the_untruncated_matrix(self, gn23):
        from bubblelab.energy import halfspace_moment_matrix
        from bubblelab.moments import interior_kappa
        Q, _, co = gn23
        kint, norms, second = interior_kappa(halfspace_moment_matrix(Q, math.inf), Q.p)
        assert kint == co.kappa_int
        assert norms == (co.I_pp, co.I_2, co.J_grad)
        assert second == (co.M_pp, co.M_2, co.M_grad)

    def test_ring_II_order_is_measured_once_in_the_sweep(self):
        geo = geometry_catalog("anisotropic-cylinder-like", 5)
        eps = 1e-3 * 0.5 ** np.arange(5)
        est = estimate("ringII", geo.data, 20.0, eps)
        errs = [r.error for r in est["reports"]]
        assert est["order"] == empirical_slope(eps, errs)
        assert all(r.order == est["order"] and r.truth == geo.data.II_ring_sq
                   for r in est["reports"])

    # the benchmark's ringII job still spells the pipeline out; it must give
    # the pipeline's bits until it calls ``estimate`` itself
    @pytest.mark.parametrize("geometry, kw", [("anisotropic-cylinder-like", {}),
                                              ("ricci-only", {"value": 1.0}),
                                              ("boundary-scal-only", {"value": 1.0})])
    def test_benchmark_ring_II_job_is_the_pipeline(self, geometry, kw):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                      root / "perfbench" / "jobs.py")
        jobs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(jobs)
        assert (geometry, kw) in jobs.CHANNEL_GEOMETRIES
        job = {"kind": "ringII", "geometry": geometry, "kw": kw, "n": 5, "R": 20.0}
        got = jobs.Session(root).run(job)["estimate"]
        data = geometry_catalog(geometry, 5, **kw).data
        want = estimate("ringII", data, 20.0, 1e-3 * 0.5 ** np.arange(5))["reports"][-1].estimate
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
