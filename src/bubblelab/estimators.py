"""Energy-only inverse estimators: curvature from quotient deficits alone.

Single-scale, two-scale (modulated), and three-scale de-biased inversions of
the boundary-bubble expansion

    E(x, eps) = S* (rho H eps + R eps^2 + T eps^3) + O(eps^4),

the isotropic recovery of |II_ring|^2, the GN boundary/interior estimators,
and the 2D Gauss-Bonnet assembly. Estimators are pure arithmetic on deficit
values: the sweeps feed them the deficits of the jet-energy models, and the
inversions take any deficit values a caller passes. Each sweep divides by
constants of its own model's matrix at its cutoff; ``estimate`` runs them all.

Truth values for jet sweeps are the exact Taylor coefficients of the jet
quotient (energy.HalfspaceEnergyModel.series("escobar")), computed from the same
quadrature data as the deficits, so measured error rates are clean.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .energy import (HalfspaceEnergyModel, InteriorEnergyModel, channel_fit_second_order,
                     empirical_slope)
from .geometry import BoundaryPointData, InteriorPointData, fermi_jet, geometry_catalog
from .moments import (_SCALE_MOMENTS, EscobarConstants, GNCoefficients, _table_entry,
                      escobar_constants, escobar_scales, gn_coefficients, interior_kappa,
                      weighted_moments)
from .profiles import RadialProfile, escobar_halfspace_optimizer

__all__ = [
    "EstimatorReport", "EstimatorScales", "hat_H_single", "three_scale_debias",
    "modulated_two_point", "ring_II_estimator", "gn_boundary_H", "gn_interior_scal",
    "gauss_bonnet_recovery", "SampledField", "escobar_three_scale_sweep",
    "escobar_single_scale_sweep", "gn_boundary_sweep", "gn_interior_sweep",
    "disk_fields_exact", "annulus_fields_exact", "disk_fields_estimated", "estimate",
]


@dataclass
class EstimatorReport:
    target: str
    estimate: float
    eps: object                        # scalar or tuple of scales used
    truth: Optional[float] = None
    error: Optional[float] = None
    order: Optional[float] = None      # empirical convergence order, when swept
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.truth is not None and self.error is None:
            self.error = abs(self.estimate - self.truth)


class EstimatorScales(NamedTuple):
    """The two constants every Escobar estimator divides by."""
    S_star: float
    rho: float

    @classmethod
    def from_model(cls, model: HalfspaceEnergyModel):
        """S*(R) and rho_n^conf(R) from the model's own moment matrix: the
        S_star_R and rho_conf_R of escobar_constants for the same profile,
        cutoff and spec, without computing the limits."""
        fields = model.M._asdict()
        return cls(*escobar_scales(model.n, *(_table_entry(fields, name)
                                              for name in _SCALE_MOMENTS)))


def hat_H_single(E: float, eps: float, scales: EstimatorScales,
                 truth: Optional[float] = None) -> EstimatorReport:
    """H-hat = E / (S* rho eps), first-order inversion (error O(eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    est = E / (scales.S_star * scales.rho * eps)
    return EstimatorReport("H", est, eps, truth)


def three_scale_debias(E1: float, E2: float, E3: float, eps: float,
                       scales: EstimatorScales, n: Optional[int] = None,
                       truths: tuple = (None, None, None),
                       scale_triple: Optional[tuple] = None):
    """De-biased (H-hat, R-hat, T-hat) from deficits at scales (eps, 2eps, 3eps).

    A_k = E(k eps)/(k eps), D1 = A2 - A1, D2 = A3 - A2,
    T-hat = (D2 - D1)/(2 S* eps^2), R-hat = D1/(S* eps) - 3 eps T-hat,
    H-hat = (A1/S* - eps R-hat - eps^2 T-hat)/rho.
    Exact on cubic deficits; rates (3, 2, 1) under a bounded eps^4 remainder.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if scale_triple is not None:
        expect = (eps, 2 * eps, 3 * eps)
        if not np.allclose(scale_triple, expect, rtol=1e-12, atol=0.0):
            raise ValueError(f"mismatched scale triple {scale_triple}, need {expect}")
    if n is not None and n < 7:
        warnings.warn("three-scale rates are asserted for n >= 7 with locally "
                      "constant H; computing anyway", stacklevel=2)
    S = scales.S_star
    A1, A2, A3 = E1 / eps, E2 / (2 * eps), E3 / (3 * eps)
    D1, D2 = A2 - A1, A3 - A2
    t_hat = (D2 - D1) / (2.0 * S * eps ** 2)
    r_hat = D1 / (S * eps) - 3.0 * eps * t_hat
    h_hat = (A1 / S - eps * r_hat - eps ** 2 * t_hat) / scales.rho
    tH, tR, tT = truths
    return (EstimatorReport("H", h_hat, eps, tH),
            EstimatorReport("mass", r_hat, eps, tR),
            EstimatorReport("theta", t_hat, eps, tT))


def modulated_two_point(delta1: float, delta2: float, eps: float, rho: float,
                        truths: tuple = (None, None)):
    """Two-scale inversion of S*-normalized deficits Delta at (eps, 2 eps).

    M = Delta(eps)/eps, N = (Delta(2eps) - 2 Delta(eps))/eps^2; the de-biased
    combinations M - (eps/2) N -> rho H + O(eps^2) and N/2 -> R + O(eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    M = delta1 / eps
    N = (delta2 - 2.0 * delta1) / eps ** 2
    rhoH = M - 0.5 * eps * N
    r_hat = 0.5 * N
    t1, t2 = truths
    rep1 = EstimatorReport("rhoH", rhoH, eps, t1, extras={"M": M, "N": N})
    rep2 = EstimatorReport("mass", r_hat, eps, t2, extras={"M": M, "N": N})
    return rep1, rep2


def ring_II_estimator(r_hat: float, data: BoundaryPointData,
                      constants: EscobarConstants,
                      truth: Optional[float] = None) -> EstimatorReport:
    """|II_ring|^2-hat = (R-hat - kappa1 Ric_nn - kappa2 Scal_bdy)/kappa3, the
    inverse of ``geometry.renormalized_mass``: it assumes R-hat was measured
    with Scal_g off, as the channel fit measures the kappas."""
    constants.require_channel_fit()
    if constants.kappa3 is None or constants.kappa3 == 0.0:
        raise ValueError("kappa3 vanishes: anisotropy channel not invertible")
    est = (r_hat - constants.kappa1 * data.ric_nn
           - constants.kappa2 * data.scal_bdy) / constants.kappa3
    if truth is None:
        truth = data.II_ring_sq
    return EstimatorReport("ring_II_sq", est, None, truth)


def gn_boundary_H(delta1: float, delta2: float, eps1: float, eps2: float,
                  coeffs: GNCoefficients, truth: Optional[float] = None) -> EstimatorReport:
    """H-hat from GN relative deficits at two scales.

    delta_i = (W_flat - W(eps_i))/W_flat = -kappa_bdy H eps_i + O(eps^2) (the
    quotient is a sup-functional: it moves by +kappa_bdy H eps relatively), so
    H-hat = -(delta1 - delta2)/(kappa_bdy (eps1 - eps2)).
    """
    if eps1 == eps2:
        raise ValueError("needs two distinct scales")
    if coeffs.kappa_bdy == 0.0:
        raise ValueError("kappa_bdy vanishes")
    est = -(delta1 - delta2) / (coeffs.kappa_bdy * (eps1 - eps2))
    return EstimatorReport("H", est, (eps1, eps2), truth)


def gn_interior_scal(delta1: float, delta2: float, eps1: float, eps2: float,
                     kappa_int: float, truth: Optional[float] = None) -> EstimatorReport:
    """Scal-hat = (delta1 - delta2)/(kappa_int (eps1^2 - eps2^2)) from relative deficits."""
    if eps1 == eps2:
        raise ValueError("needs two distinct scales")
    if kappa_int == 0.0:
        raise ValueError("kappa_int vanishes")
    est = (delta1 - delta2) / (kappa_int * (eps1 ** 2 - eps2 ** 2))
    return EstimatorReport("scal", est, (eps1, eps2), truth)


# --------------------------------------------------------------------------
# sweep pipelines on jet geometries
# --------------------------------------------------------------------------

def _sweep(quotient, eps_grid, multiples: tuple, invert) -> list:
    """One inversion per base scale, from the deficits at its multiples.

    One ``quotient`` call evaluates the deficits on the whole (multiple,
    base) eps array. At each base eps of the grid, ``invert(eps, *deficits)``
    gets the deficit at k eps for each k in ``multiples`` and returns one
    report per target. Returns, per target, its reports, the grid, their
    errors and their empirical order, which each report also carries.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    E = quotient(np.multiply.outer(multiples, eps_grid)).deficit
    rows = [invert(e, *E[:, i]) for i, e in enumerate(eps_grid)]
    out = []
    for reports in zip(*rows):
        errs = np.array([r.error for r in reports])
        order = empirical_slope(eps_grid, errs)
        for r in reports:
            r.order = order
        out.append({"reports": list(reports), "eps": eps_grid, "errors": errs,
                    "order": order})
    return out


def escobar_single_scale_sweep(data: BoundaryPointData, profile: RadialProfile,
                               R: float, eps_grid) -> dict:
    """H-hat over an eps-grid with cutoff-consistent constants; order vs truth H."""
    model = HalfspaceEnergyModel(fermi_jet(data, order=2), profile, R)
    scales = EstimatorScales.from_model(model)
    truth = data.H
    sw, = _sweep(model.escobar_quotient, eps_grid, (1,),
                 lambda e, E: (hat_H_single(E, e, scales, truth=truth),))
    return dict(sw, truth=truth, scales=scales, series=model.series("escobar"))


def escobar_three_scale_sweep(data: BoundaryPointData, profile: RadialProfile,
                              R: float, eps_grid) -> dict:
    """(H, R, T)-estimates over base scales; truths from the exact jet series."""
    model = HalfspaceEnergyModel(fermi_jet(data, order=2), profile, R)
    scales = EstimatorScales.from_model(model)
    c = model.series("escobar", order=3)
    truths = (data.H, c[1], c[2])  # H; mass = c2; theta = c3 of the jet quotient
    # no n: the sweep measures its own orders, so it skips the debias's
    # n >= 7 rate caveat; the quotients' jet-positivity warnings pass through
    sws = _sweep(model.escobar_quotient, eps_grid, (1, 2, 3),
                 lambda e, *E: three_scale_debias(*E, e, scales, truths=truths))
    keys = ("H", "mass", "theta")
    return {"reports": {k: sw["reports"] for k, sw in zip(keys, sws)}, "eps": sws[0]["eps"],
            "orders": {k: sw["order"] for k, sw in zip(keys, sws)}, "truths": truths,
            "scales": scales, "series": c}


def gn_boundary_sweep(data: BoundaryPointData, Qplus: RadialProfile,
                      coeffs: GNCoefficients, R: float, eps_grid) -> dict:
    """GN H-hat from deficit pairs (eps, 2 eps) on a boundary jet."""
    model = HalfspaceEnergyModel(fermi_jet(data, order=2), Qplus, R)
    truth = data.H
    sw, = _sweep(model.gn_quotient, eps_grid, (1, 2),
                 lambda e, d1, d2: (gn_boundary_H(d1, d2, e, 2 * e, coeffs, truth=truth),))
    return dict(sw, truth=truth, series=model.series("gn-boundary"))


def gn_interior_sweep(data: InteriorPointData, Q: RadialProfile, R: float, eps_grid) -> dict:
    """GN Scal-hat from deficit pairs (eps, 2 eps) on an interior jet, by kappa_int(R)."""
    model = InteriorEnergyModel(data, Q, R)
    kappa_int = interior_kappa(model.M, Q.p)[0]
    truth = data.scal
    sw, = _sweep(model.gn_quotient, eps_grid, (1, 2),
                 lambda e, d1, d2: (gn_interior_scal(d1, d2, e, 2 * e, kappa_int, truth=truth),))
    return dict(sw, truth=truth, kappa_int=kappa_int, series=model.series("gn-interior"))


def estimate(target: str, data, R: float, eps_grid, p: float = 3.0) -> dict:
    """The reports, order and constants of ``bubblelab estimate``: Escobar
    targets divide by S*(R) and rho(R), ringII (H = 0 only) by its channel fit
    at R, scal by kappa_int(R) with the ``gn_coefficients`` snapshot at R."""
    if target == "scal":
        from .fixtures import cached_gn_profiles
        Q, Qplus = cached_gn_profiles(data.n, p)
        constants = gn_coefficients(Q, Qplus, R=R).snapshot()
        sw = gn_interior_sweep(data, Q, R, eps_grid)
        return {"reports": sw["reports"], "order": sw["order"], "constants": constants}
    U = escobar_halfspace_optimizer(data.n)
    if target == "ringII":
        model = HalfspaceEnergyModel(fermi_jet(data, order=2), U, R)
        scales = EstimatorScales.from_model(model)
        C = escobar_constants(data.n, weighted_moments(U, R))
        fit = channel_fit_second_order(data.n, U, C, R=R)
        C.kappa1, C.kappa2, C.kappa3 = fit.kappa1, fit.kappa2, fit.kappa3_fit
        sw, = _sweep(model.escobar_quotient, eps_grid, (1, 2, 3), lambda e, *E: (
            ring_II_estimator(three_scale_debias(*E, e, scales)[1].estimate, data, C),))
    else:
        sw = {"H": escobar_single_scale_sweep, "mass": escobar_three_scale_sweep,
              "theta": escobar_three_scale_sweep}[target](data, U, R, eps_grid)
        scales = sw["scales"]
        if target != "H":   # mass or theta
            sw = {"reports": sw["reports"][target], "order": sw["orders"][target]}
    return {"reports": sw["reports"], "order": sw["order"],
            "constants": {"S_star_R": scales.S_star, "rho_conf_R": scales.rho, "R": R}}


# --------------------------------------------------------------------------
# Gauss-Bonnet assembly on surfaces
# --------------------------------------------------------------------------

@dataclass
class SampledField:
    """Field samples with quadrature measures (sum(weights) = total measure)."""
    values: np.ndarray
    weights: np.ndarray

    def integral(self) -> float:
        return float(np.dot(np.asarray(self.values, float), np.asarray(self.weights, float)))


def gauss_bonnet_recovery(n: int, interior_scal: SampledField,
                          boundary_H: SampledField) -> EstimatorReport:
    """chi-hat = (1/2pi)(0.5 * int Scal dV + int H ds) from sampled fields."""
    if n != 2:
        raise ValueError("Gauss-Bonnet recovery is two-dimensional only")
    chi = (0.5 * interior_scal.integral() + boundary_H.integral()) / (2.0 * math.pi)
    nearest = round(chi)
    return EstimatorReport("euler_characteristic", chi, None, extras={
        "nearest_integer": int(nearest), "distance_to_integer": abs(chi - nearest)})


# sample counts of the disk and annulus fields: the exact fields, and the
# estimated ones (one estimate per sample point, all equal on the round disk)
_EXACT_INTERIOR, _EXACT_BOUNDARY = 25, 16
_ESTIMATED_INTERIOR, _ESTIMATED_BOUNDARY = 9, 8


def disk_fields_exact() -> tuple:
    """Exact fields on the flat unit disk: Scal = 0, H = 1, length 2 pi."""
    w = np.full(_EXACT_INTERIOR, math.pi / _EXACT_INTERIOR)   # weights sum to the area
    interior = SampledField(np.zeros(_EXACT_INTERIOR), w)
    wb = np.full(_EXACT_BOUNDARY, 2.0 * math.pi / _EXACT_BOUNDARY)
    boundary = SampledField(np.ones(_EXACT_BOUNDARY), wb)
    return interior, boundary


def annulus_fields_exact(r_inner: float) -> tuple:
    """Exact fields on the flat annulus (r, 1): outer H = 1, inner H = -1/r."""
    if not (0 < r_inner < 1):
        raise ValueError("inner radius must lie in (0, 1)")
    area = math.pi * (1.0 - r_inner ** 2)
    interior = SampledField(np.zeros(4), np.full(4, area / 4.0))
    nb = _EXACT_BOUNDARY
    values = np.concatenate([np.ones(nb), np.full(nb, -1.0 / r_inner)])
    weights = np.concatenate([np.full(nb, 2.0 * math.pi / nb),
                              np.full(nb, 2.0 * math.pi * r_inner / nb)])
    return interior, SampledField(values, weights)


def disk_fields_estimated(Q: RadialProfile, Qplus: RadialProfile,
                          coeffs: GNCoefficients, eps: float = 1e-2,
                          R: float = 20.0) -> tuple:
    """Estimator-produced fields on the unit disk via the GN sweeps at cutoff R.

    Every interior point of the flat disk carries the flat jet and every
    boundary point the H = 1 Fermi jet, so one sweep of each kind serves the
    whole grid. The boundary sweep at (eps/2, eps/4) gives two applications
    of the two-scale estimator, Richardson-combined to cancel its leading
    O(eps1 + eps2) bias. ``coeffs`` gives the boundary's kappa_bdy: take it at R.
    """
    inner = gn_interior_sweep(InteriorPointData(n=2, scal=0.0), Q, R, [eps])
    ni, nb = _ESTIMATED_INTERIOR, _ESTIMATED_BOUNDARY
    interior = SampledField(np.full(ni, inner["reports"][0].estimate), np.full(ni, math.pi / ni))
    ball = geometry_catalog("euclidean-ball", 2, radius=1.0).data
    h1, h2 = (r.estimate for r in
              gn_boundary_sweep(ball, Qplus, coeffs, R, [eps / 2, eps / 4])["reports"])
    boundary = SampledField(np.full(nb, 2.0 * h2 - h1), np.full(nb, 2.0 * math.pi / nb))
    return interior, boundary
