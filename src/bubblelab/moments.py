"""Weighted profile moments, moment identities, and closed-form coefficients.

Everything here is built from the model profiles:

* truncated moments of chi_R * U at cutoff R over the half-ball, read from
  the moment matrix of ``energy.halfspace_moment_matrix`` (the cutoff
  vanishes outside |y| = 2R, so the rectangle [0, 2R]^2 is the whole domain);
* untruncated limits in closed form, each a product of two Beta functions
  (DLMF 5.12) in the profile's own amplitude;
* the first-order coefficient rho_n^conf both as the bracket combination
  (2/(n-1)) g1_tan - g1 + ((n-2)/2) Theta and in the harmonic closed form
  (n-2)^2 Theta / (2(n-1)), with an agreement assertion;
* kappa_3 = (4-n) g2 / (2(n-1)), the sharp constant S* = J / T^(2/q), and the
  plain-trace first-order coefficient Theta/2;
* Gagliardo-Nirenberg curvature coefficients kappa_int / kappa_bdy from the
  (normalized) second and first vertical moments of the ground state and the
  half-space near-optimizer;
* fast-diffusion exponents theta_m, alpha_{n,m}, beta_{n,m}.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .energy import halfspace_moment_matrix
from .profiles import (RadialProfile, beta_function, sphere_area, gn_exponents,
                       weinstein_quotient_fullspace)
from .quadrature import QuadratureSpec, DEFAULT_QUAD, integrate_ray

__all__ = [
    "MomentTable", "EscobarConstants", "GNCoefficients", "FDEExponents",
    "LogDivergentMoment", "IdentityReport", "ConstantsMismatch",
    "weighted_moments", "verify_harmonic_identities", "second_moment_identity",
    "escobar_constants", "gn_coefficients", "fde_exponents",
    "kappa_int_from_moments", "kappa_bdy_from_moments",
]


class LogDivergentMoment(ValueError):
    """Raised when a y_n^2-weighted moment is requested in n = 4."""


class ConstantsMismatch(RuntimeError):
    """Bracket and closed forms of rho_n^conf disagree beyond tolerance."""


# truncated table entries as sums of moment-matrix entries (field, i, j)
_TRUNCATED = {
    "J": (("tan", 0, 0), ("nor", 0, 0)),
    "g1": (("tan", 0, 1), ("nor", 0, 1)),
    "g1tan": (("tan", 0, 1),),
    "g2": (("tan", 0, 2), ("nor", 0, 2)),
    "g2tan": (("tan", 0, 2),),
    "Theta": (("tr2", 0, 0),),
    "Tq": (("trq", 0, 0),),
}


@dataclass
class MomentTable:
    """Truncated moments at cutoff R plus their R->infinity extrapolants.

    values[name] / errors[name]: truncated moment and its two-resolution
    quadrature error. limits: untruncated counterparts, exact up to rounding.
    Entries g2, g2tan exist only for n >= 5 (log-divergent in n = 4).
    """
    n: int
    R: float
    values: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)

    def truncated(self, name: str) -> float:
        self._check(name)
        return self.values[name]

    def limit(self, name: str) -> float:
        self._check(name)
        return self.limits[name]

    def _check(self, name: str) -> None:
        if name not in _TRUNCATED:
            raise KeyError(name)
        if name in ("g2", "g2tan") and self.n == 4:
            raise LogDivergentMoment(
                "log-divergent moment: y_n^2-weighted moments diverge "
                "logarithmically in n = 4")

    def q(self) -> float:
        return 2.0 * (self.n - 1) / (self.n - 2)


def _table_entry(fields: dict, name: str) -> float:
    return float(sum(fields[f][i, j] for f, i, j in _TRUNCATED[name]))


def _limit_moments(profile: RadialProfile) -> dict:
    """Untruncated moments of U = c (r^2 + (1+t)^2)^(-(n-2)/2), in closed form.

    Each is |S^(n-2)| times a power of c times a quarter-plane integral that
    factors into two Beta functions (DLMF 5.12):
    int_0^inf int_0^inf r^(m-1) t^b (r^2 + (1+t)^2)^(-s) dr dt
        = (1/2) B(m/2, s - m/2) B(b+1, 2s - m - b - 1).
    """
    n, c = profile.n, profile.amplitude
    om = sphere_area(n - 2)
    q = 2.0 * (n - 1) / (n - 2)

    def quarter_plane(m, s, b):
        return (0.5 * beta_function(m / 2.0, s - m / 2.0)
                * beta_function(b + 1.0, 2.0 * s - m - b - 1.0))

    # r^(n-2) |grad U|^2 = c^2 (n-2)^2 r^(n-2) rho^(2-2n), and its r-part alone
    # r^(n-2) U_r^2 = c^2 (n-2)^2 r^n rho^(-2n), with rho^2 = r^2 + (1+t)^2
    grad = c * c * (n - 2) ** 2 * om
    limits = {"J": grad * quarter_plane(n - 1, n - 1, 0),
              "g1": grad * quarter_plane(n - 1, n - 1, 1),
              "g1tan": grad * quarter_plane(n + 1, n, 1)}
    if n >= 5:
        limits["g2"] = grad * quarter_plane(n - 1, n - 1, 2)
        limits["g2tan"] = grad * quarter_plane(n + 1, n, 2)
    # traces on {t = 0}: U^2 = c^2 (1 + r^2)^(2-n) and |U|^q = c^q (1 + r^2)^(1-n)
    limits["Theta"] = om * c * c * 0.5 * beta_function((n - 1) / 2.0, (n - 3) / 2.0)
    limits["Tq"] = om * c ** q * 0.5 * beta_function((n - 1) / 2.0, (n - 1) / 2.0)
    return limits


def weighted_moments(profile: RadialProfile, R: float,
                     spec: QuadratureSpec = DEFAULT_QUAD) -> MomentTable:
    """All weighted moments of chi_R * profile, plus untruncated limits."""
    if profile.kind != "escobar-halfspace":
        raise ValueError("weighted_moments expects the half-space optimizer kind")
    if profile.n < 4:
        raise LogDivergentMoment("first moments require n >= 4")
    if R < 1.0:
        raise ValueError("cutoff radius must be >= 1")
    M = halfspace_moment_matrix(profile, R, spec)
    names = [k for k in _TRUNCATED if profile.n >= 5 or k not in ("g2", "g2tan")]
    values = {k: _table_entry(vars(M), k) for k in names}
    errors = {k: abs(_table_entry(M.delta, k)) for k in names}
    return MomentTable(n=profile.n, R=float(R), values=values, errors=errors,
                       limits=_limit_moments(profile))


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    name: str
    ok: bool
    residuals: dict
    tol: float

    def __bool__(self) -> bool:
        return self.ok


def verify_harmonic_identities(table: MomentTable, tol: float = 1e-5) -> IdentityReport:
    """Check g1 = Theta/2 and g1tan = Theta/4 on the extrapolated values."""
    if table.n < 4:
        raise LogDivergentMoment("harmonic identities need n >= 4")
    th = table.limit("Theta")
    r1 = abs(table.limit("g1") - th / 2.0)
    r2 = abs(table.limit("g1tan") - th / 4.0)
    ok = (r1 <= tol * th) and (r2 <= tol * th)
    return IdentityReport("harmonic-y-moments", ok,
                          {"g1_minus_half_theta": r1, "g1tan_minus_quarter_theta": r2}, tol)


def second_moment_identity(table: MomentTable, tol: float = 1e-5) -> IdentityReport:
    """Check g2tan = g2 / 2 on the extrapolated values (n >= 5)."""
    if table.n < 5:
        raise LogDivergentMoment("second-moment identity needs n >= 5")
    g2 = table.limit("g2")
    res = abs(table.limit("g2tan") - 0.5 * g2)
    return IdentityReport("yn2-moment-split", res <= tol * g2, {"g2tan_minus_half_g2": res}, tol)


# --------------------------------------------------------------------------
# Escobar constants
# --------------------------------------------------------------------------

@dataclass
class EscobarConstants:
    """Dimensional constants of the boundary problem at one dimension n.

    kappa1/kappa2 and the third-order channel weights alpha1..alpha4 are not
    derivable from moments; they stay None until a channel fit or user config
    supplies them. c_conf and a_kernel are model units (default 1.0).
    """
    n: int
    q: float
    a_n: float
    S_star: float                  # extrapolated J / T^(2/q)
    S_star_R: float                # same combination at the table's cutoff
    R: float
    rho_conf: float                # closed form (n-2)^2 Theta / (2(n-1))
    rho_conf_bracket: float        # bracket combination, extrapolated
    rho_conf_R: float              # bracket combination at cutoff R
    plain_rho: float               # plain-trace first-order coefficient Theta/2
    S_trace_R: float               # plain-trace flat value at cutoff R
    Theta: float
    g2: Optional[float]
    kappa3: Optional[float]
    kappa1: Optional[float] = None
    kappa2: Optional[float] = None
    c_conf: float = 1.0
    a_kernel: float = 1.0
    alpha_channels: Optional[tuple] = None   # (alpha1..alpha4) for Theta_g

    def require_channel_fit(self) -> None:
        if self.kappa1 is None or self.kappa2 is None:
            raise ValueError("unfit channel constants: kappa1/kappa2 missing "
                             "(run the channel fit or set them in config)")

    def snapshot(self) -> dict:
        return {k: getattr(self, k) for k in (
            "n", "q", "a_n", "S_star", "S_star_R", "R", "rho_conf",
            "rho_conf_bracket", "rho_conf_R", "plain_rho", "S_trace_R",
            "Theta", "g2", "kappa3", "kappa1", "kappa2", "c_conf", "a_kernel",
            "alpha_channels")}


def escobar_constants(n: int, table: MomentTable, rho_tol: float = 1e-6) -> EscobarConstants:
    if table.n != n:
        raise ValueError("table dimension mismatch")
    q = 2.0 * (n - 1) / (n - 2)
    a_n = 4.0 * (n - 1) / (n - 2)
    th = table.limit("Theta")
    bracket = ((2.0 / (n - 1)) * table.limit("g1tan") - table.limit("g1")
               + (n - 2) / 2.0 * th) / table.limit("J")
    closed = (n - 2) ** 2 * th / (2.0 * (n - 1)) / table.limit("J")
    if abs(bracket - closed) > rho_tol * abs(closed):
        raise ConstantsMismatch(
            f"rho_n^conf bracket {bracket} vs closed form {closed} disagree "
            f"beyond {rho_tol} relative")
    bracket_R = ((2.0 / (n - 1)) * table.truncated("g1tan") - table.truncated("g1")
                 + (n - 2) / 2.0 * table.truncated("Theta")) / table.truncated("J")
    g2 = table.limit("g2") if n >= 5 else None
    kappa3 = (4.0 - n) * g2 / (2.0 * (n - 1)) if g2 is not None else None
    s_star = table.limit("J") / table.limit("Tq") ** (2.0 / q)
    s_star_R = table.truncated("J") / table.truncated("Tq") ** (2.0 / q)
    alpha_pt = (n - 1.0) / (n - 2.0)
    s_trace_R = table.truncated("Tq") / table.truncated("J") ** alpha_pt
    return EscobarConstants(
        n=n, q=q, a_n=a_n, S_star=s_star, S_star_R=s_star_R, R=table.R,
        rho_conf=closed, rho_conf_bracket=bracket, rho_conf_R=bracket_R,
        plain_rho=th / 2.0, S_trace_R=s_trace_R, Theta=th, g2=g2, kappa3=kappa3)


# --------------------------------------------------------------------------
# GN coefficients
# --------------------------------------------------------------------------

def kappa_int_from_moments(Mpp: float, M2: float, Mgr: float,
                           alpha: float, beta: float) -> float:
    return (Mpp - 0.5 * alpha * M2 - 0.5 * beta * Mgr) / 6.0


def kappa_bdy_from_moments(mpp: float, m2: float, mgr_tan: float, mgr: float,
                           alpha: float, beta: float, n: int) -> float:
    return -mpp + 0.5 * alpha * m2 - 0.5 * beta * ((2.0 / (n - 1)) * mgr_tan - mgr)


@dataclass
class GNCoefficients:
    n: int
    p: float
    alpha: float
    beta: float
    C_star: float                 # Weinstein value of the Euclidean optimizer
    W_flat_halfspace: float       # achieved quotient of the near-optimizer
    I_pp: float
    I_2: float
    J_grad: float
    M_pp: float
    M_2: float
    M_grad: float
    m1_pp: float
    m1_2: float
    m1_grad: float
    m1_grad_tan: float
    kappa_int: float
    kappa_bdy: float
    errors: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {k: getattr(self, k) for k in (
            "n", "p", "alpha", "beta", "C_star", "W_flat_halfspace", "kappa_int",
            "kappa_bdy", "I_pp", "I_2", "J_grad", "M_pp", "M_2", "M_grad",
            "m1_pp", "m1_2", "m1_grad", "m1_grad_tan")}


def gn_coefficients(n: int, p: float, Q: RadialProfile, Qplus: RadialProfile,
                    R: float = 20.0, spec: QuadratureSpec = DEFAULT_QUAD) -> GNCoefficients:
    """Curvature coefficients kappa_int / kappa_bdy and the sharp constant.

    Interior second moments are normalized by n * I; boundary first vertical
    moments are normalized by the matching truncated integral of P_R = chi_R Q+.
    """
    if Q.kind != "gn-ground-state" or Qplus.kind != "gn-halfspace-near-optimizer":
        raise ValueError("gn_coefficients expects (ground state, half-space near-optimizer)")
    alpha, beta = gn_exponents(n, p)
    om_n = sphere_area(n - 1)
    rmax = Q.grid[-1]

    def ray(fn, label, errs):
        val, err = integrate_ray(fn, spec, inner=rmax, decay=4.0, with_error=True)
        errs[label] = err
        if not np.isfinite(val) or (abs(val) > 0 and err > 1e-6 * abs(val)):
            raise RuntimeError(f"tail non-convergence in GN moment '{label}': err {err}")
        return val

    errs: dict = {}
    Ipp = ray(lambda r: om_n * Q.value(r) ** (p + 1) * r ** (n - 1), "I_pp", errs)
    I2 = ray(lambda r: om_n * Q.value(r) ** 2 * r ** (n - 1), "I_2", errs)
    Jg = ray(lambda r: om_n * Q.grad(r) ** 2 * r ** (n - 1), "J_grad", errs)
    Mpp = ray(lambda r: om_n * r ** 2 * Q.value(r) ** (p + 1) * r ** (n - 1), "M_pp", errs) / (n * Ipp)
    M2 = ray(lambda r: om_n * r ** 2 * Q.value(r) ** 2 * r ** (n - 1), "M_2", errs) / (n * I2)
    Mgr = ray(lambda r: om_n * r ** 2 * Q.grad(r) ** 2 * r ** (n - 1), "M_grad", errs) / (n * Jg)

    bdy = halfspace_moment_matrix(Qplus, R, spec, p_exponent=p, t_offset=Qplus.shift)
    (ippR, y_ipp), (i2R, y_i2), (jgR, y_jg), (_, y_jgtan) = (
        a[0, :2].tolist() for a in (bdy.pp, bdy.w2, bdy.tan + bdy.nor, bdy.tan))
    m1_pp, m1_2 = y_ipp / ippR, y_i2 / i2R
    m1_g, m1_gt = y_jg / jgR, y_jgtan / jgR
    d = bdy.delta
    errs["boundary"] = float(max(np.abs(a[0, :2]).max()
                                 for a in (d["pp"], d["w2"], d["tan"] + d["nor"], d["tan"])))

    kint = kappa_int_from_moments(Mpp, M2, Mgr, alpha, beta)
    kbdy = kappa_bdy_from_moments(m1_pp, m1_2, m1_gt, m1_g, alpha, beta, n)
    cstar = weinstein_quotient_fullspace(Q, spec)
    wflat = ippR / (i2R ** (alpha / 2.0) * jgR ** (beta / 2.0))
    return GNCoefficients(n=n, p=p, alpha=alpha, beta=beta, C_star=cstar,
                          W_flat_halfspace=wflat, I_pp=Ipp, I_2=I2, J_grad=Jg,
                          M_pp=Mpp, M_2=M2, M_grad=Mgr, m1_pp=m1_pp, m1_2=m1_2,
                          m1_grad=m1_g, m1_grad_tan=m1_gt,
                          kappa_int=kint, kappa_bdy=kbdy, errors=errs)


# --------------------------------------------------------------------------
# fast-diffusion exponents
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FDEExponents:
    n: int
    m: float
    theta: float
    alpha: float
    beta: float
    bernoulli_ok: bool      # alpha in (0,1): Bernoulli decay regime
    sobolev_ok: bool        # m >= (n-2)/(n+2) keeps the GN line in range


def fde_exponents(n: int, m) -> FDEExponents:
    """theta_m = mn/(mn+2), alpha = mn/(2mn+2-n), beta = (m(n+2)+2-n)/(2mn+2-n).

    Accepts Fraction for exact rational arithmetic; n = 2 gives alpha = 1/2
    exactly in either mode.
    """
    if not (0 < m < 1):
        raise ValueError("fast-diffusion exponent requires 0 < m < 1")
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    exact = isinstance(m, Fraction)
    sob_ok = True
    if n >= 3 and m < Fraction(n - 2, n + 2):
        sob_ok = False
        warnings.warn(
            f"m={m} below (n-2)/(n+2): the GN line leaves the Sobolev range",
            stacklevel=2)
    mn = m * n
    theta = mn / (mn + 2)
    # associativity chosen so the n = 2 case is exact in floating point:
    # denom = 2mn - (n-2) = 2mn, hence alpha = mn/(2mn) = 1/2 exactly
    denom = 2 * mn - (n - 2)
    if denom <= 0:
        raise ValueError("EEP exponents undefined: 2mn + 2 - n <= 0")
    alpha = mn / denom
    beta = (m * (n + 2) - (n - 2)) / denom
    ok = 0 < alpha < 1
    if exact:
        return FDEExponents(n, m, theta, alpha, beta, ok, sob_ok)
    return FDEExponents(n, float(m), float(theta), float(alpha), float(beta), ok, sob_ok)
