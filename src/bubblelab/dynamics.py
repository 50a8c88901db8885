"""Fast-diffusion decay envelopes, extinction bounds, and window eigenvalues.

The PDE itself is never solved; this module implements the ODE/bound layer:

* Bernoulli entropy decay  E' <= -kappa E^(1/alpha)  integrates to
  E(t) <= (E0^(-(1-alpha)/alpha) + ((1-alpha)/alpha) kappa t)^(-alpha/(1-alpha));
  the equality ODE is integrated numerically and compared to the envelope.
* Extinction-time lower bound T >= y0^(1-m) / ((1-m) lambda_1) with the ODE
  witness y' = -lambda_1 y^m hitting zero exactly at the bound.
* Eigenfunction competitor bound W_sup >= Vol^(1-(p+1)/2) lambda_1^(-beta/2).
* Small Dirichlet window: first radial eigenvalue of the ball with a Dirichlet
  window of radius d at the center and a Neumann outer shell (the window is
  the only essential boundary, which is what drives lambda_1 -> 0 at the
  capacity rate: lambda_1 ~ 1/|log d| in n = 2, ~ d^(n-2) in n = 3), as the
  squared first root of its characteristic equation (a Bessel cross-product
  in n = 2, a trigonometric one in n = 3). The d = 0 case is the separate
  all-Dirichlet ball, in closed form (j_{0,1}^2, pi^2).

The EEP constant's "euclidean-leading" mode identifies the form-B GN
inequality (q = 1 + 1/m, r = 1/m) with the Weinstein family at p = 1/m, so
C = C*(n, 1/m) comes from the same ground-state machinery as everything else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .moments import fde_exponents, FDEExponents
from .profiles import gn_ground_state, weinstein_quotient_fullspace
from .quadrature import QuadratureSpec, DEFAULT_QUAD

__all__ = [
    "DecayParams", "decay_envelope", "ode_decay_check", "extinction_time_lower",
    "eig_competitor_bound", "small_window_lambda1", "window_ladder",
    "capacity_blowup_bound", "euclidean_leading_constant",
]


def euclidean_leading_constant(n: int, m: float,
                               spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """EEP constant in euclidean-leading mode: C*(n, p = 1/m)."""
    p = 1.0 / m
    if n >= 3 and p >= (n + 2.0) / (n - 2.0):
        raise ValueError(
            f"euclidean-leading mode needs m > (n-2)/(n+2); got m={m}, n={n}")
    Q = gn_ground_state(n, p, spec)
    return weinstein_quotient_fullspace(Q, spec)


@dataclass
class DecayParams:
    """Inputs of the Bernoulli decay bound for the entropy E = int u^(m+1)."""
    n: int
    m: float
    E0: float
    M0: float
    C: Optional[float] = None          # EEP constant; None -> euclidean-leading
    C_mode: str = "euclidean-leading"
    exponents: FDEExponents = None
    kappa: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.E0 <= 0 or self.M0 <= 0:
            raise ValueError("initial entropy and mass must be positive")
        if self.exponents is None:
            self.exponents = fde_exponents(self.n, self.m)
        if self.C is None:
            if self.C_mode != "euclidean-leading":
                raise ValueError("explicit C required unless mode is euclidean-leading")
            # Euclidean-leading value carries an O(eps_*) caveat on curved (M, g)
            self.C = euclidean_leading_constant(self.n, self.m)
        al, be = self.exponents.alpha, self.exponents.beta
        self.kappa = (self.m + 1.0) * self.C ** (-1.0 / al) * self.M0 ** (-be / al)

    @property
    def alpha(self) -> float:
        return self.exponents.alpha

    @property
    def beta(self) -> float:
        return self.exponents.beta

    @property
    def bernoulli_ok(self) -> bool:
        return 0.0 < self.alpha < 1.0


def decay_envelope(params: DecayParams, t) -> np.ndarray:
    """Closed-form entropy envelope; requires alpha in (0, 1)."""
    al = params.alpha
    if not params.bernoulli_ok:
        raise ValueError(f"no Bernoulli regime: alpha = {al} not in (0, 1)")
    t = np.asarray(t, dtype=float)
    a = (1.0 - al) / al
    return (params.E0 ** (-a) + a * params.kappa * t) ** (-1.0 / a)


def ode_decay_check(params: DecayParams, horizon: float,
                    rtol: float = 1e-11, atol: float = 1e-13,
                    n_samples: int = 400) -> dict:
    """Integrate the equality ODE E' = -kappa E^(1/alpha) and compare.

    At equality the solution and the envelope coincide; the report carries the
    sup gap over the horizon and flags the near-exponential regime alpha ~ 1.
    """
    from scipy.integrate import solve_ivp
    al = params.alpha
    if not params.bernoulli_ok:
        raise ValueError(f"no Bernoulli regime: alpha = {al} not in (0, 1)")

    def rhs(t, y):
        return [-params.kappa * max(y[0], 0.0) ** (1.0 / al)]

    ts = np.linspace(0.0, horizon, n_samples)
    sol = solve_ivp(rhs, (0.0, horizon), [params.E0], t_eval=ts,
                    rtol=rtol, atol=atol, method="RK45")
    if not sol.success:
        raise RuntimeError(f"ODE solver failure: {sol.message}")
    env = decay_envelope(params, ts)
    gap = sol.y[0] - env
    return {
        "t": ts,
        "E": sol.y[0],
        "envelope": env,
        "sup_gap": float(np.max(np.abs(gap))),
        "majorized": bool(np.all(sol.y[0] <= env + 1e-8 * np.abs(env))),
        "near_exponential": bool(al > 0.95),
    }


def extinction_time_lower(y0: float, m: float, lam1: float) -> float:
    """T_ext >= y0^(1-m) / ((1-m) lambda_1)."""
    if not (0.0 < m < 1.0):
        raise ValueError("m must lie in (0, 1)")
    if lam1 <= 0 or y0 <= 0:
        raise ValueError("lambda_1 and the eigenfunction pairing must be positive")
    return y0 ** (1.0 - m) / ((1.0 - m) * lam1)


def eig_competitor_bound(vol: float, lam1: float, n: int, p: float) -> float:
    """Lower bound Vol^(1-(p+1)/2) lambda_1^(-beta/2) on the GN supremum."""
    if vol <= 0 or lam1 <= 0:
        raise ValueError("volume and lambda_1 must be positive")
    beta = n * (p - 1.0) / 2.0
    return vol ** (1.0 - (p + 1.0) / 2.0) * lam1 ** (-beta / 2.0)


# --------------------------------------------------------------------------
# window eigenvalue from its characteristic equation
# --------------------------------------------------------------------------

# brentq to double precision (its smallest admissible rtol)
_ROOT_TOL = {"xtol": 1e-300, "rtol": 4.0 * np.finfo(float).eps}


def small_window_lambda1(n: int, d: float) -> float:
    """First radial eigenvalue of the unit ball with a window of radius d.

    d > 0: Dirichlet at r = d, Neumann at r = 1 (the capacity-window model).
    lambda = k^2 with k the first positive root of the characteristic equation,
    L = 1 - d:

        n = 3:  k cos(kL) = sin(kL)               (u = sin(k (r - d)) / r)
        n = 2:  J1(k) Y0(kd) - Y1(k) J0(kd) = 0   (u = J0(kr) Y0(kd) - Y0(kr) J0(kd))

    d = 0: the all-Dirichlet ball, closed form j_{0,1}^2 (n = 2) or pi^2 (n = 3).
    """
    from scipy import special
    from scipy.optimize import brentq
    if n not in (2, 3):
        raise ValueError("window solver covers n in {2, 3}")
    if not (0.0 <= d < 1.0):
        raise ValueError("window radius must lie in [0, 1)")
    if d == 0.0:
        return float(special.jn_zeros(0, 1)[0]) ** 2 if n == 2 else math.pi ** 2
    L = 1.0 - d
    if n == 3:
        # (k cos(kL) - sin(kL)) / k = d j0(x) - x j1(x), x = kL, in spherical
        # Bessel functions, free of the cancellation at small d: it is d at
        # k = 0 and -2L/pi at k = pi/(2L)
        def neumann(k):
            x = k * L
            return d * special.spherical_jn(0, x) - x * special.spherical_jn(1, x)

        k = brentq(neumann, 0.0, math.pi / (2.0 * L), **_ROOT_TOL)
        return k * k

    def cross(k):
        return special.j1(k) * special.y0(k * d) - special.y1(k) * special.j0(k * d)

    # cross is +inf as k -> 0+, and its first root lies below pi/L (the mixed
    # eigenvalue is below the Dirichlet annulus one): scan up to there
    ks = np.geomspace(1e-3, math.pi / L, 256)
    i = int(np.argmax(cross(ks) <= 0.0))
    if i == 0:
        raise RuntimeError(f"no window root below k = pi/(1-d) for n={n}, d={d}")
    k = brentq(cross, ks[i - 1], ks[i], **_ROOT_TOL)
    return k * k


def window_ladder(n: int, ds) -> dict:
    """lambda_1 across a window-radius ladder with the capacity-scaled column.

    The scaled column is lambda_1 * |log d| (n = 2) or lambda_1 / d^(n-2)
    (n = 3); its stabilization across the last two rungs is the check.
    """
    ds = np.asarray(ds, dtype=float)
    lams = np.array([small_window_lambda1(n, d) for d in ds])
    if n == 2:
        scaled = lams * np.abs(np.log(ds))
    else:
        scaled = lams / ds ** (n - 2)
    tail_variation = abs(scaled[-1] - scaled[-2]) / abs(scaled[-1])
    return {"d": ds, "lambda1": lams, "scaled": scaled,
            "tail_variation": float(tail_variation)}


def capacity_blowup_bound(n: int, p: float, ds) -> dict:
    """Chain the window eigenvalue through the competitor bound over a ladder.

    Reports the fitted divergence exponent of the bound against d (n = 3) or
    against |log d| (n = 2), to compare with beta/2 scaling.
    """
    ds = np.asarray(ds, dtype=float)
    beta = n * (p - 1.0) / 2.0
    ball_vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    lams, bounds = [], []
    for d in ds:
        lam = small_window_lambda1(n, d)
        vol = ball_vol * (1.0 - d ** n)
        lams.append(lam)
        bounds.append(eig_competitor_bound(vol, lam, n, p))
    lams = np.array(lams); bounds = np.array(bounds)
    if n == 2:
        x = np.log(np.abs(np.log(ds)))
        expected = beta / 2.0
    else:
        x = np.log(ds)
        expected = -beta / 2.0 * (n - 2)
    slope = float(np.polyfit(x, np.log(bounds), 1)[0])
    return {"d": ds, "lambda1": lams, "bound": bounds, "fitted_exponent": slope,
            "expected_exponent": float(expected), "beta": beta}
