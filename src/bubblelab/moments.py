"""Weighted profile moments, moment identities, and closed-form coefficients.

Everything here is built from the model profiles:

* truncated moments of chi_R * U at cutoff R over the half-ball |y| <= 2R,
  read from the moment matrix of ``energy.halfspace_moment_matrix``;
* untruncated limits read the same way from the engine's matrix at R = inf,
  whose entries are products of two Beta functions (DLMF 5.12);
* the first-order coefficient rho_n^conf both as the bracket combination
  (2/(n-1)) g1_tan - g1 + ((n-2)/2) Theta and in the harmonic closed form
  (n-2)^2 Theta / (2(n-1)), with an agreement assertion;
* kappa_3 = (4-n) g2 / (2(n-1)), the sharp constant S* = J / T^(2/q), and the
  plain-trace first-order coefficient Theta/2;
* Gagliardo-Nirenberg coefficients: kappa_int of record from the ground
  state's matrix at R = inf (the sweeps divide by kappa_int(R) of their own
  matrix, both by ``interior_kappa``), kappa_bdy from the near-optimizer's at
  R, and the Weinstein quotient, which gives C* and the near-optimizer's W;
* fast-diffusion exponents theta_m, alpha_{n,m}, beta_{n,m}.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .energy import halfspace_moment_matrix
from .profiles import RadialProfile, ShootingError, gn_exponents
from .quadrature import QuadratureSpec, DEFAULT_QUAD

__all__ = [
    "MomentTable", "EscobarConstants", "GNCoefficients", "FDEExponents",
    "LogDivergentMoment", "IdentityReport", "ConstantsMismatch", "interior_kappa",
    "weighted_moments", "verify_harmonic_identities", "second_moment_identity",
    "escobar_scales", "escobar_constants", "gn_coefficients", "fde_exponents",
    "kappa_int_from_moments", "kappa_bdy_from_moments", "weinstein_quotient",
]


class LogDivergentMoment(ValueError):
    """Raised when a y_n^2-weighted moment is requested in n = 4."""


class ConstantsMismatch(RuntimeError):
    """Bracket and closed forms of rho_n^conf disagree beyond tolerance."""


# table entries, truncated and limits, as sums of moment-matrix entries (field, i, j)
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
    quadrature error. limits: untruncated counterparts from the matrix at
    R = inf, exact up to rounding.
    Entries g2, g2tan exist only for n >= 5 (log-divergent in n = 4).
    """
    n: int
    R: float
    values: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)

    def truncated(self, name: str) -> float:
        return self._read(self.values, name)

    def limit(self, name: str) -> float:
        return self._read(self.limits, name)

    def _read(self, entries: dict, name: str) -> float:
        if name in ("g2", "g2tan") and self.n == 4:
            raise LogDivergentMoment(
                "log-divergent moment: y_n^2-weighted moments diverge "
                "logarithmically in n = 4")
        return entries[name]


def _table_entry(fields: dict, name: str) -> float:
    return float(sum(fields[f][i, j] for f, i, j in _TRUNCATED[name]))


def weighted_moments(profile: RadialProfile, R: float,
                     spec: QuadratureSpec = DEFAULT_QUAD) -> MomentTable:
    """All weighted moments of chi_R * profile, plus untruncated limits."""
    if profile.kind != "escobar-halfspace":
        raise ValueError("weighted_moments expects the half-space optimizer kind")
    if profile.n < 4:
        raise LogDivergentMoment("first moments require n >= 4")
    if R < 1.0:
        raise ValueError("cutoff radius must be >= 1")
    M, full = (halfspace_moment_matrix(profile, r, spec)._asdict() for r in (R, math.inf))
    names = [k for k in _TRUNCATED if profile.n >= 5 or k not in ("g2", "g2tan")]
    values = {k: _table_entry(M, k) for k in names}
    errors = {k: abs(_table_entry(M["delta"], k)) for k in names}
    return MomentTable(n=profile.n, R=float(R), values=values, errors=errors,
                       limits={k: _table_entry(full, k) for k in names})


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

class IdentityReport(NamedTuple):
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

    kappa1/kappa2 come from ``energy.channel_fit_second_order`` (exact at
    R = inf) and the third-order channel weights alpha1..alpha4 from config;
    all stay None until supplied. c_conf and a_kernel are model units (1.0).
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the moments escobar_scales reads, in its argument order
_SCALE_MOMENTS = ("J", "g1", "g1tan", "Theta", "Tq")
_RHO_TOL = 1e-6        # relative gap allowed between the two forms of rho_n^conf


def escobar_scales(n: int, J: float, g1: float, g1tan: float, Theta: float,
                   Tq: float) -> tuple:
    """(S*, rho_n^conf) of one set of moments, truncated or untruncated:
    S* = J / Tq^(2/q) and the bracket ((2/(n-1)) g1tan - g1 + ((n-2)/2) Theta) / J."""
    q = 2.0 * (n - 1) / (n - 2)
    rho = ((2.0 / (n - 1)) * g1tan - g1 + (n - 2) / 2.0 * Theta) / J
    return J / Tq ** (2.0 / q), rho


def escobar_constants(n: int, table: MomentTable) -> EscobarConstants:
    if table.n != n:
        raise ValueError("table dimension mismatch")
    q = 2.0 * (n - 1) / (n - 2)
    a_n = 4.0 * (n - 1) / (n - 2)
    th = table.limit("Theta")
    s_star, bracket = escobar_scales(n, *map(table.limit, _SCALE_MOMENTS))
    closed = (n - 2) ** 2 * th / (2.0 * (n - 1)) / table.limit("J")
    if abs(bracket - closed) > _RHO_TOL * abs(closed):
        raise ConstantsMismatch(
            f"rho_n^conf bracket {bracket} vs closed form {closed} disagree "
            f"beyond {_RHO_TOL} relative")
    s_star_R, bracket_R = escobar_scales(n, *map(table.truncated, _SCALE_MOMENTS))
    g2 = table.limit("g2") if n >= 5 else None
    kappa3 = (4.0 - n) * g2 / (2.0 * (n - 1)) if g2 is not None else None
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


def interior_kappa(M, p: float) -> tuple:
    """(kappa_int, (I_pp, I_2, J_grad), (M_pp, M_2, M_grad)) of a ground state's
    radial matrix M at its cutoff: M_x is the r^2 moment (column 0) over n I_x."""
    n = M.n
    (Ipp, Mpp), (I2, M2), (Jg, Mgr) = (a[0:3:2, 0].tolist() for a in (M.pp, M.w2, M.tan))
    second = (Mpp / (n * Ipp), M2 / (n * I2), Mgr / (n * Jg))
    return kappa_int_from_moments(*second, *gn_exponents(n, p)), (Ipp, I2, Jg), second


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "errors"}


# the near-optimizer's largest accepted relative deficit, W >= (1 - delta0) C*:
# the shift-2 near-optimizer's is at most 6.3% on n = 2, p in [1.1, 7] and
# n = 3, p in [1.1, 4], and a center at depth 0.5 misses by 27% at (3, 3)
# and 48% at (2, 5)
_GN_DELTA0 = 0.1


def weinstein_quotient(M, p: float) -> float:
    """I_pp / (I_2^(alpha/2) J^(beta/2)) from the [0, 0] entries pp, w2 and
    tan + nor of the moment matrix of a profile with GN exponent p (the
    matrix does not record p)."""
    alpha, beta = gn_exponents(M.n, p)
    return M.pp[0, 0] / (M.w2[0, 0] ** (alpha / 2.0)
                         * (M.tan[0, 0] + M.nor[0, 0]) ** (beta / 2.0))


def gn_coefficients(Q: RadialProfile, Qplus: RadialProfile, R: float = 20.0,
                    spec: QuadratureSpec = DEFAULT_QUAD) -> GNCoefficients:
    """Curvature coefficients kappa_int / kappa_bdy and the sharp constant.

    n and p are those of the ground state Q; the near-optimizer Q+ must share
    them (ValueError otherwise). kappa_int and C* are the values of record,
    from the untruncated (R = inf) matrix of Q; a sweep at cutoff R divides by
    kappa_int(R) of its own matrix instead. kappa_bdy and W_flat_halfspace come
    from the cutoff-R matrix of Q+, its first vertical moments normalized by
    the matching truncated integral of P_R = chi_R Q+; ``errors`` holds the
    two-resolution differences. Raises ShootingError when
    W_flat_halfspace < (1 - delta0) C*, delta0 = 0.1.
    """
    if Q.kind != "gn-ground-state" or Qplus.kind != "gn-halfspace-near-optimizer":
        raise ValueError("gn_coefficients expects (ground state, half-space near-optimizer)")
    n, p = Q.n, Q.p
    if (Qplus.n, Qplus.p) != (n, p):
        raise ValueError(f"gn_coefficients needs one (n, p): the ground state has ({n}, {p}), "
                         f"the near-optimizer ({Qplus.n}, {Qplus.p})")
    alpha, beta = gn_exponents(n, p)
    full = halfspace_moment_matrix(Q, math.inf, spec)
    kint, (Ipp, I2, Jg), (Mpp, M2, Mgr) = interior_kappa(full, p)
    errs = {label: abs(float(full.delta[name][i, 0])) for label, name, i in (
        ("I_pp", "pp", 0), ("I_2", "w2", 0), ("J_grad", "tan", 0),
        ("M_pp", "pp", 2), ("M_2", "w2", 2), ("M_grad", "tan", 2))}

    bdy = halfspace_moment_matrix(Qplus, R, spec)
    (ippR, y_ipp), (i2R, y_i2), (jgR, y_jg), (_, y_jgtan) = (
        a[0, :2].tolist() for a in (bdy.pp, bdy.w2, bdy.tan + bdy.nor, bdy.tan))
    m1_pp, m1_2 = y_ipp / ippR, y_i2 / i2R
    m1_g, m1_gt = y_jg / jgR, y_jgtan / jgR
    d = bdy.delta
    errs["boundary"] = float(max(np.abs(a[0, :2]).max()
                                 for a in (d["pp"], d["w2"], d["tan"] + d["nor"], d["tan"])))

    cstar = weinstein_quotient(full, p)
    wflat = weinstein_quotient(bdy, p)
    if wflat < (1.0 - _GN_DELTA0) * cstar:
        raise ShootingError(
            f"half-space near-optimizer misses its deficit target at R={R}: "
            f"W = {wflat:.6g} < (1 - delta0) C* = (1 - {_GN_DELTA0}) {cstar:.6g}")
    kbdy = kappa_bdy_from_moments(m1_pp, m1_2, m1_gt, m1_g, alpha, beta, n)
    return GNCoefficients(n=n, p=p, alpha=alpha, beta=beta, C_star=cstar,
                          W_flat_halfspace=wflat, I_pp=Ipp, I_2=I2, J_grad=Jg,
                          M_pp=Mpp, M_2=M2, M_grad=Mgr, m1_pp=m1_pp, m1_2=m1_2,
                          m1_grad=m1_g, m1_grad_tan=m1_gt,
                          kappa_int=kint, kappa_bdy=kbdy, errors=errs)


# --------------------------------------------------------------------------
# fast-diffusion exponents
# --------------------------------------------------------------------------

class FDEExponents(NamedTuple):
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
    from fractions import Fraction   # only here: it imports decimal
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
