"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here. Criterion 4 is split: the traceless-channel
cross-check (4a) passes; the positivity expectation for the boundary-scalar
channel constant (4b) is asserted exactly as stated and is expected to fail.
The measured value at n = 5 converges to the exact Beta-function combination
-3/16 as the cutoff grows (the derivation is in the 4b test comment); the
failure is a property of the expectation, not of the machinery, which the
passing 4a check pins at sub-percent accuracy.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bubblelab.moments import (verify_harmonic_identities, second_moment_identity,
                               fde_exponents)
from bubblelab.geometry import geometry_catalog, fermi_jet, InteriorPointData
from bubblelab.energy import (HalfspaceEnergyModel, InteriorEnergyModel,
                              fit_power_series, empirical_slope)
from bubblelab.estimators import (EstimatorScales, three_scale_debias,
                                  escobar_single_scale_sweep,
                                  escobar_three_scale_sweep, gauss_bonnet_recovery,
                                  disk_fields_exact, annulus_fields_exact,
                                  disk_fields_estimated)
from bubblelab.reduced import (CircleDomain, ExpressionField, InteractionKernel,
                               Configuration, reduced_functional, scale_jacobian,
                               critical_point_search, quantized_levels)
from bubblelab.dynamics import (DecayParams, decay_envelope, ode_decay_check,
                                extinction_time_lower, small_window_lambda1,
                                window_ladder)
from bubblelab import fixtures as fx


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_01_moment_identities(moment_tables):
    worst = 0.0
    for n in (4, 5, 6, 7):
        rep = verify_harmonic_identities(moment_tables[n], tol=1e-5)
        worst = max(worst, max(rep.residuals.values()) / moment_tables[n].limit("Theta"))
        assert rep.ok
    for n in (5, 6, 7):
        rep2 = second_moment_identity(moment_tables[n], tol=1e-5)
        worst = max(worst, max(rep2.residuals.values()) / moment_tables[n].limit("g2"))
        assert rep2.ok
    report("1", worst <= 1e-5,
           f"harmonic and y_n^2 moment identities, worst residual {worst:.2e} (tol 1e-5)")


def test_criterion_02_coefficient_closed_forms(constants, moment_tables):
    worst = 0.0
    for n in (4, 5, 6, 7):
        C = constants[n]
        rel = abs(C.rho_conf_bracket - C.rho_conf) / C.rho_conf
        worst = max(worst, rel)
        assert rel <= 1e-6
    for n in (5, 6, 7, 8):
        C = constants[n]
        ratio = C.kappa3 / moment_tables[n].limit("g2")
        assert ratio == pytest.approx((4.0 - n) / (2.0 * (n - 1)), rel=1e-12)
        assert C.kappa3 < 0
    report("2", True, f"rho bracket/closed agreement worst {worst:.2e} (tol 1e-6); "
                      "kappa3 ratios exact and negative for n in 5..8")


def test_criterion_03_first_order_escobar_law(halfspace_profiles, constants):
    data = geometry_catalog("h-only", 5, H=1.0).data
    jet = fermi_jet(data, order=2, chart_radius=2.0)
    model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
    eps = 1e-2 * 0.5 ** np.arange(6)
    y = np.array([model.escobar_quotient(e).deficit for e in eps]) / model.flat_escobar()
    slope = fit_power_series(eps, y, (1, 2, 3))[0]
    rel = abs(slope - constants[5].rho_conf) / constants[5].rho_conf
    report("3", rel <= 0.02,
           f"H-only slope {slope:.6f} vs rho_5 = {constants[5].rho_conf:.6f} "
           f"({rel:.3%}, tol 2%)")


def test_criterion_04a_channel_fit_kappa3(channel_fit_n5):
    report("4a", channel_fit_n5.kappa3_rel_err <= 0.05,
           f"fitted kappa3 {channel_fit_n5.kappa3_fit:.6f} vs moment value "
           f"{channel_fit_n5.kappa3_moment:.6f} ({channel_fit_n5.kappa3_rel_err:.3%}, tol 5%)")


def test_criterion_04b_channel_fit_kappa2_positive(channel_fit_n5):
    # Implemented exactly as stated; expected red. The measured constant is
    # negative for every n >= 5: per unit boundary scalar curvature the only
    # ingredients are the bulk volume correction (negative, weight
    # A/6 with A = int r^2 |grad U|^2 = (n-1)(n-2)/((n-3)(n-4))) and the
    # boundary-measure correction (positive, weight (n-2)T2/(6(n-1)) with
    # T2 = (n-1)/(n-3)), the g^ab curvature term being pointwise zero against
    # tangentially radial gradients. At n = 5 the exact limit is -3/16.
    k2 = channel_fit_n5.kappa2
    report("4b", k2 > 0,
           f"fitted kappa2 = {k2:.6f} (claim: positive; measured value is the "
           f"exact Beta-function combination -3/16 + O(1/R))")


def test_criterion_05_ball_observability(halfspace_profiles):
    ball = geometry_catalog("euclidean-ball", 5).data
    eps = 2e-3 * 0.5 ** np.arange(5)
    sw = escobar_single_scale_sweep(ball, halfspace_profiles[5], 40.0, eps)
    h_fin = sw["reports"][-1].estimate
    ok = 0.8 <= sw["order"] <= 1.2 and abs(h_fin - 4.0) / 4.0 <= 0.05
    report("5", ok, f"ball H-hat finest {h_fin:.5f} (truth 4, tol 5%), "
                    f"error order {sw['order']:.3f} (band [0.8, 1.2])")


def test_criterion_06_three_scale_debiasing(halfspace_profiles):
    # (i) polynomial exactness on synthetic cubics (any eps; 0.05 keeps the
    # theta-hat division 2 S eps^2 clear of double-precision amplification)
    S, rho, H, R, T = 2.0, 1.5, 0.4, -0.8, 0.6
    eps = 0.05
    E = [S * (rho * H * (k * eps) + R * (k * eps) ** 2 + T * (k * eps) ** 3)
         for k in (1, 2, 3)]
    rh, rr, rt = three_scale_debias(E[0], E[1], E[2], eps, EstimatorScales(S, rho))
    exact = max(abs(rh.estimate - H), abs(rr.estimate - R), abs(rt.estimate - T))
    assert exact <= 1e-12
    # (ii) quartic remainder: empirical orders within +-0.3 of (3, 2, 1)
    c = 0.9
    grid = 8e-3 * 0.5 ** np.arange(5)
    errs = {"H": [], "mass": [], "theta": []}
    for e in grid:
        E = [S * (rho * H * (k * e) + R * (k * e) ** 2 + T * (k * e) ** 3
                  + c * (k * e) ** 4) for k in (1, 2, 3)]
        a, b, d = three_scale_debias(E[0], E[1], E[2], e, EstimatorScales(S, rho),
                                     truths=(H, R, T))
        errs["H"].append(a.error); errs["mass"].append(b.error); errs["theta"].append(d.error)
    orders_syn = {k: empirical_slope(grid, v) for k, v in errs.items()}
    assert abs(orders_syn["H"] - 3) <= 0.3
    assert abs(orders_syn["mass"] - 2) <= 0.3
    assert abs(orders_syn["theta"] - 1) <= 0.3
    # (iii) H-constant jet at n = 7
    data = geometry_catalog("h-only", 7, H=0.5).data
    sw = escobar_three_scale_sweep(data, halfspace_profiles[7], 30.0, grid)
    o = sw["orders"]
    ok = o["H"] >= 2.7 and o["mass"] >= 1.7 and o["theta"] >= 0.7
    report("6", ok and exact <= 1e-12,
           f"synthetic exactness {exact:.1e} (tol 1e-12); quartic orders "
           f"({orders_syn['H']:.2f}, {orders_syn['mass']:.2f}, {orders_syn['theta']:.2f}); "
           f"jet n=7 orders ({o['H']:.2f}, {o['mass']:.2f}, {o['theta']:.2f}) "
           ">= (2.7, 1.7, 0.7)")


def test_criterion_07_plain_trace_coefficient(halfspace_profiles, constants):
    data = geometry_catalog("h-only", 5, H=1.0).data
    jet = fermi_jet(data, order=2, chart_radius=2.0)
    model = HalfspaceEnergyModel(jet, halfspace_profiles[5], 40.0)
    eps = 1e-2 * 0.5 ** np.arange(6)
    y = np.array([model.plain_trace_quotient(e).deficit for e in eps])
    y /= model.flat_plain_trace()
    slope = fit_power_series(eps, y, (1, 2, 3))[0]
    target = constants[5].plain_rho
    rel = abs(slope - target) / target
    report("7", rel <= 0.02,
           f"plain-trace slope {slope:.6f} vs Theta/2 = {target:.6f} ({rel:.3%}, tol 2%)")


@pytest.mark.parametrize("case", ["gn23", "gn33"])
def test_criterion_08_gn_expansions(case, request):
    Q, Qp, co = request.getfixturevalue(case)
    n = co.n
    eps = 1e-2 * 0.5 ** np.arange(6)
    bdata = geometry_catalog("euclidean-ball", n).data if n == 2 else \
        geometry_catalog("h-only", n, H=1.0).data
    jet = fermi_jet(bdata, order=2, chart_radius=3.0)
    bm = HalfspaceEnergyModel(jet, Qp, 20.0)
    rel = np.array([bm.gn_quotient(e).breakdown["rel_change"] for e in eps])
    slope = fit_power_series(eps, rel, (1, 2, 3))[0]
    rel_err_b = abs(slope - co.kappa_bdy * bdata.H) / abs(co.kappa_bdy * bdata.H)

    scal = 2.0 if n == 2 else 6.0
    im = InteriorEnergyModel(InteriorPointData(n=n, scal=scal), Q, 20.0)
    defs = np.array([im.gn_quotient(e).deficit for e in eps])
    c2 = fit_power_series(eps, defs, (2, 3))[0]
    rel_err_i = abs(c2 - co.kappa_int * scal) / abs(co.kappa_int * scal)
    ok = rel_err_b <= 0.02 and rel_err_i <= 0.05
    report(f"8({n},{int(co.p)})", ok,
           f"boundary slope vs kappa_bdy*H: {rel_err_b:.3%} (tol 2%); interior "
           f"eps^2 coefficient vs kappa_int*Scal: {rel_err_i:.3%} (tol 5%)")


def test_criterion_09_gauss_bonnet(gn23):
    rep_d = gauss_bonnet_recovery(2, *disk_fields_exact())
    rep_a = gauss_bonnet_recovery(2, *annulus_fields_exact(0.5))
    exact_ok = abs(rep_d.estimate - 1.0) <= 1e-10 and abs(rep_a.estimate) <= 1e-10
    Q, Qp, co = gn23
    interior, boundary = disk_fields_estimated(Q, Qp, co, eps=1e-2, R=20.0)
    rep_e = gauss_bonnet_recovery(2, interior, boundary)
    est_ok = abs(rep_e.estimate - 1.0) <= 0.05
    report("9", exact_ok and est_ok,
           f"exact-field |chi-1| = {abs(rep_d.estimate - 1):.1e} (disk), "
           f"|chi| = {abs(rep_a.estimate):.1e} (annulus), tol 1e-10; "
           f"estimated chi = {rep_e.estimate:.4f} (|chi-1| <= 0.05)")


def test_criterion_10_reduced_model(constants):
    # (i) Gershgorin dominance: k = 3, n = 6, |mass| >= 0.5, separation >= 0.5
    C6 = constants[6]
    mass = ExpressionField("1.0 + 0.5*cos(theta)")
    cfg = Configuration(CircleDomain(), np.array([[0.3], [2.0], [4.2]]),
                        np.array([1e-3] * 3), mass_field=mass)
    rep = scale_jacobian(cfg, InteractionKernel(n=6), C6)
    assert rep.diagonally_dominant
    # (ii) interaction-block scaling slope within 5% of n - 2
    slopes = {}
    for n in (4, 5, 6):
        Cn = constants[n]
        ker = InteractionKernel(n=n)
        epss = 1e-2 * 0.5 ** np.arange(5)
        vals = []
        for e in epss:
            c2 = Configuration(CircleDomain(), np.array([[0.0], [3.0]]),
                               np.array([e, e]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals.append(reduced_functional(c2, ker, Cn) - 2.0)
        slopes[n] = np.polyfit(np.log(epss), np.log(np.abs(vals)), 1)[0]
        assert abs(slopes[n] - (n - 2)) / (n - 2) <= 0.05
    # (iii) search vs brute-force grid optima of W_2 on cos(2 theta)
    field = ExpressionField("cos(2*theta)")
    pts = critical_point_search(field, 2, seeds=64)
    theta = np.arange(0.0, 2.0 * math.pi, 1e-3)
    f = np.cos(2.0 * theta)
    band = 0.05
    best_min, best_max = (np.inf, None), (-np.inf, None)
    for i in range(0, theta.size, 512):
        block = f[i:i + 512, None] + f[None, :]
        d = np.abs((theta[i:i + 512, None] - theta[None, :] + math.pi)
                   % (2 * math.pi) - math.pi)
        block = np.where(d < band, np.nan, block)
        jmin = np.nanargmin(block); jmax = np.nanargmax(block)
        vmin = block.ravel()[jmin]; vmax = block.ravel()[jmax]
        if vmin < best_min[0]:
            best_min = (vmin, (theta[i + jmin // block.shape[1]], theta[jmin % block.shape[1]]))
        if vmax > best_max[0]:
            best_max = (vmax, (theta[i + jmax // block.shape[1]], theta[jmax % block.shape[1]]))
    dom = CircleDomain()

    def matches(target_pair, cp):
        a = sorted(x % (2 * math.pi) for x in target_pair)
        b = sorted(x % (2 * math.pi) for x in cp.centers.ravel())
        return all(dom.distance(x, y) <= 1.5e-3 for x, y in zip(a, b))

    search_min = min(pts, key=lambda p: p.value)
    search_max = max(pts, key=lambda p: p.value)
    ok3 = matches(best_min[1], search_min) and matches(best_max[1], search_max)
    assert ok3
    report("10", True,
           f"Gershgorin dominant; interaction slopes {[f'{slopes[n]:.3f}' for n in (4,5,6)]} "
           f"vs (2,3,4); search optima match the 1e-3 brute-force grid optima")


def test_criterion_11_quantized_levels(constants):
    S4 = constants[4].S_star
    lev = quantized_levels(8, 4, S4)
    ok1 = abs(lev - 2.0 * S4) <= 1e-12 * 2.0 * S4
    levels = [quantized_levels(k, 4, S4) for k in range(1, 10)]
    ok2 = bool(np.all(np.diff(levels) > 0))
    report("11", ok1 and ok2,
           f"k^(1/(n-1)) S* strictly increasing; (k,n)=(8,4) gives {lev:.12g} "
           f"= 2 S* (tol 1e-12 relative)")


def test_criterion_12_fde():
    exact = all(fde_exponents(2, float(m)).alpha == 0.5
                for m in np.linspace(0.1, 0.9, 9))
    par = DecayParams(n=2, m=0.5, E0=1.0, M0=1.0, C=1.5 ** 0.5)  # kappa = 1
    chk = ode_decay_check(par, 100.0)
    t = np.asarray(chk["t"])
    closed = 1.0 / (1.0 + par.kappa * t)
    closed_gap = float(np.max(np.abs(chk["envelope"] - closed)))
    y0, m_, lam = 1.7, 0.5, 1.3
    bound = extinction_time_lower(y0, m_, lam)
    # witness: z = y^(1-m) crosses zero exactly at the bound
    witness = y0 ** (1 - m_) / ((1 - m_) * lam)
    ok = (exact and chk["sup_gap"] <= 1e-8 and chk["majorized"]
          and closed_gap <= 1e-8 and abs(bound - witness) <= 1e-8)
    report("12", ok,
           f"alpha(2,m) = 1/2 exactly; ODE-envelope sup gap {chk['sup_gap']:.1e} "
           f"(tol 1e-8); closed form gap {closed_gap:.1e}; extinction bound vs "
           f"witness {abs(bound - witness):.1e}")


def test_criterion_13_window_scaling():
    lad2 = window_ladder(2, [1e-2, 1e-3, 1e-4, 1e-5])
    lad3 = window_ladder(3, [1e-2, 1e-3, 1e-4, 1e-5])
    lam = small_window_lambda1(2, 0.0)
    # independent Bessel oracle (series + bisection)
    from test_dynamics import j0_first_root
    j01 = j0_first_root()
    bessel_rel = abs(lam - j01 ** 2) / j01 ** 2
    ok = (lad2["tail_variation"] <= 0.15 and lad3["tail_variation"] <= 0.15
          and bessel_rel <= 1e-6)
    report("13", ok,
           f"lambda*|log d| tail variation {lad2['tail_variation']:.3%}, "
           f"lambda/d tail variation {lad3['tail_variation']:.3%} (tol 15%); "
           f"disk vs Bessel oracle {bessel_rel:.1e} (tol 1e-6)")


def test_criterion_14_determinism_fixtures(tmp_path):
    rep = fx.verify()
    assert rep["ok"], rep["failures"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = subprocess.run(
            [sys.executable, "-m", "bubblelab.cli", "coefficients", "--n", "5",
             "--R", "30", "--out", str(out)], capture_output=True)
        assert rc.returncode == 0
        outs.append(out.read_bytes())
    report("14", outs[0] == outs[1] and rep["ok"],
           f"fixtures verify ({rep['n_entries']} entries) and repeated CLI runs "
           "byte-identical")
