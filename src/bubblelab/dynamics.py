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
  in n = 2, a spherical-Bessel one in n = 3), bisected to adjacent floats.
  J0, J1, Y0 and Y1 are evaluated in numpy from their power series, Bessel's
  integrals and Hankel's expansion. The d = 0 case is the separate
  all-Dirichlet ball, j_{0,1}^2 (the first root of the same J0) or pi^2.
* The equality ODE is integrated by a Dormand-Prince 5(4) pair that takes
  the same steps as scipy's RK45, so the module needs no scipy.

The EEP constant's "euclidean-leading" mode identifies the form-B GN
inequality (q = 1 + 1/m, r = 1/m) with the Weinstein family at p = 1/m, so
C = C*(n, 1/m) comes from the same ground-state machinery as everything else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .quadrature import grid_1d, hankel_factors

if TYPE_CHECKING:
    from .moments import FDEExponents

__all__ = [
    "DecayParams", "decay_envelope", "ode_decay_check", "extinction_time_lower",
    "eig_competitor_bound", "small_window_lambda1", "window_ladder",
    "capacity_blowup_bound", "euclidean_leading_constant",
]


def euclidean_leading_constant(n: int, m: float) -> float:
    """EEP constant in euclidean-leading mode: C*(n, p = 1/m)."""
    from .energy import halfspace_moment_matrix
    from .fixtures import cached_gn_ground_state
    from .moments import weinstein_quotient
    p = 1.0 / m
    if n >= 3 and p >= (n + 2.0) / (n - 2.0):
        raise ValueError(
            f"euclidean-leading mode needs m > (n-2)/(n+2); got m={m}, n={n}")
    Q = cached_gn_ground_state(n, p)
    return weinstein_quotient(halfspace_moment_matrix(Q, math.inf), p)


@dataclass
class DecayParams:
    """Inputs of the Bernoulli decay bound for the entropy E = int u^(m+1)."""
    n: int
    m: float
    E0: float
    M0: float
    C: Optional[float] = None          # EEP constant; None -> euclidean-leading
    exponents: FDEExponents = field(init=False)   # from (n, m)
    kappa: float = field(init=False, default=0.0)

    def __post_init__(self):
        from .moments import fde_exponents
        if self.E0 <= 0 or self.M0 <= 0:
            raise ValueError("initial entropy and mass must be positive")
        self.exponents = fde_exponents(self.n, self.m)
        if self.C is None:
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
        return self.exponents.bernoulli_ok


def decay_envelope(params: DecayParams, t) -> np.ndarray:
    """Closed-form entropy envelope; requires alpha in (0, 1)."""
    al = params.alpha
    if not params.bernoulli_ok:
        raise ValueError(f"no Bernoulli regime: alpha = {al} not in (0, 1)")
    t = np.asarray(t, dtype=float)
    a = (1.0 - al) / al
    return (params.E0 ** (-a) + a * params.kappa * t) ** (-1.0 / a)


def _dopri45(fun, t_end: float, y0: float, t_eval, rtol: float, atol: float):
    """Integrate the scalar autonomous ODE y' = fun(y) from t = 0 to t_end.

    Returns (y at t_eval, the number of fun calls). The Dormand-Prince 5(4)
    pair (Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19) with the
    initial step, RMS error norm and step controller of Hairer, Norsett &
    Wanner (Solving ODEs I, sec. II.4: safety 0.9, factors within [0.2, 10],
    no growth right after a rejection) and Shampine's quartic dense output
    (Math. Comp. 46 (1986) 135) at the points of t_eval, which must be sorted
    in [0, t_end]. These are the rules of scipy's RK45, and the stage sums are
    np.dot products on the shapes that solver forms, so that both round alike
    (numpy's BLAS may fuse multiply-adds): the two agree bit for bit.
    """
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
    t, y = 0.0, np.array([float(y0)])
    f = np.array([fun(y[0])])
    # initial step: the RMS norm of one component is its absolute value
    scale = atol + abs(y[0]) * rtol
    d0, d1 = abs(y[0] / scale), abs(f[0] / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = abs((fun(y[0] + h0 * f[0]) - f[0]) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end)
    nfev = 2
    K = np.empty((7, 1))
    out = np.empty(len(t_eval))
    i = 0
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("ODE solver failure: Required step size is less "
                                   "than spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun((y + np.dot(K[:s].T, A[s, :s]) * h)[0])
            y_new = y + h * np.dot(K[:-1].T, B)
            K[6] = f_new = np.array([fun(y_new[0])])
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = abs((np.dot(K.T, E) * h / scale)[0])
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        j = int(np.searchsorted(t_eval, t_new, side="right"))
        if j > i:
            x = (t_eval[i:j] - t) / h
            out[i:j] = (h * np.dot(K.T.dot(P), np.cumprod(np.tile(x, (4, 1)), axis=0))
                        + y[:, None])[0]
            i = j
        t, y, f = t_new, y_new, f_new
    return out, nfev


# tolerances and sample count of the equality-ODE check
_ODE_RTOL, _ODE_ATOL, _ODE_SAMPLES = 1e-11, 1e-13, 400


def ode_decay_check(params: DecayParams, horizon: float) -> dict:
    """Integrate the equality ODE E' = -kappa E^(1/alpha) and compare.

    At equality the solution and the envelope coincide; the report carries the
    sup gap over the horizon, the number of right-hand-side evaluations, and
    flags the near-exponential regime alpha ~ 1.
    """
    al = params.alpha
    if not params.bernoulli_ok:
        raise ValueError(f"no Bernoulli regime: alpha = {al} not in (0, 1)")

    def rhs(y):
        return -params.kappa * max(y, 0.0) ** (1.0 / al)

    ts = np.linspace(0.0, horizon, _ODE_SAMPLES)
    E, nfev = _dopri45(rhs, horizon, params.E0, ts, _ODE_RTOL, _ODE_ATOL)
    env = decay_envelope(params, ts)
    gap = E - env
    return {
        "t": ts,
        "E": E,
        "envelope": env,
        "nfev": nfev,
        "sup_gap": float(np.max(np.abs(gap))),
        "majorized": bool(np.all(E <= env + 1e-8 * np.abs(env))),
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
    from .profiles import gn_exponents
    if vol <= 0 or lam1 <= 0:
        raise ValueError("volume and lambda_1 must be positive")
    beta = gn_exponents(n, p)[1]
    return vol ** (1.0 - (p + 1.0) / 2.0) * lam1 ** (-beta / 2.0)


# --------------------------------------------------------------------------
# window eigenvalue from its characteristic equation
# --------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _bessel_tables():
    """Coefficient tables and quadrature nodes of ``_bessel01``, built on first use.

    Row m of ``series`` holds the coefficients of q^m, q = -x^2/4, in J0,
    J1/h and the psi-weighted sums S0, S1 of Y0, Y1 (h = x/2; psi(m + 1) is
    the digamma function). Row k of ``hankel`` holds those of x^(-k) in
    P0, Q0, P1, Q1: +-a_k(nu), the running product of ``hankel_factors``,
    with the sign (-1)^floor(k/2). Then ``grid_1d``'s 16-point rules on 10
    panels of [0, pi] and on 3 panels of [0, 1], which ``profiles._kv`` shares.
    """
    m = np.arange(20)
    inv_fact = np.cumprod(np.concatenate([[1.0], 1.0 / m[1:]]))
    psi = -0.5772156649015329 + np.concatenate([[0.0], np.cumsum(1.0 / m[1:])])
    t0 = inv_fact * inv_fact                   # 1/(m!)^2
    t1 = t0 / (m + 1)                          # 1/(m! (m+1)!)
    series = np.stack([t0, t1, 2.0 * psi * t0, (2.0 * psi + 1.0 / (m + 1)) * t1], axis=1)
    hankel = np.zeros((20, 4))
    odd = m % 2 == 1
    for col, nu in ((0, 0.0), (2, 1.0)):
        a = np.cumprod(np.concatenate([[1.0], hankel_factors(nu, 20)]))
        a *= np.where(m % 4 < 2, 1.0, -1.0)
        hankel[:, col] = np.where(odd, 0.0, a)
        hankel[:, col + 1] = np.where(odd, a, 0.0)
    return ((series, hankel) + grid_1d(0.0, math.pi, 16, subdiv=10, base=math.pi)
            + grid_1d(0.0, 1.0, 16, subdiv=3))


def _bessel01(x) -> np.ndarray:
    """(J0, J1, Y0, Y1)(x) for x > 0, stacked on a new first axis, in numpy.

    * x <= 2: the power series (DLMF 10.2.2, 10.8.1).
    * 2 < x < 20: Bessel's and Schlaefli's integrals (DLMF 10.9.2, 10.9.7),
      J_n + i Y_n = (1/pi) int_0^pi exp(i (x sin s - n s)) ds
      - (i/pi) int_0^inf (e^(nt) + (-1)^n e^(-nt)) e^(-x sinh t) dt,
      by the 16-point rule on 10 panels of [0, pi] (enough for an integrand
      of x/pi oscillations up to x = 20) and on 3 panels of [0, asinh(40/x)],
      beyond which e^(-x sinh t) < e^(-40).
    * x >= 20: Hankel's expansion (DLMF 10.17.3, 10.17.4), 20 terms,
      J_n + i Y_n = sqrt(2/(pi x)) (P_n + i Q_n) exp(i (x - (2n + 1) pi/4)).
      The phase enters through sin x and cos x, so pi/4 is never rounded
      against x.

    Against mpmath at 2199 points of [1e-8, 100], each is within 2.2e-15 of
    the modulus sqrt(J_n^2 + Y_n^2) (scipy.special: 6.1e-15 on the same
    points).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((4,) + x.shape)
    small, large = x <= 2.0, x >= 20.0
    mid = ~(small | large)
    series, hankel, s, w, u, wu = _bessel_tables()
    powers = np.arange(20)
    if small.any():
        h = x[small] / 2.0
        j0, j1, s0, s1 = ((-h * h)[:, None] ** powers @ series).T
        log_h = np.log(h)
        j1 = h * j1
        out[:, small] = (j0, j1, (2.0 * log_h * j0 - s0) / math.pi,
                         (2.0 * log_h * j1 - 1.0 / h - h * s1) / math.pi)
    if mid.any():
        xm = x[mid, None]
        phase = xm * np.sin(s)
        T = np.arcsinh(40.0 / xm)
        sh = np.sinh(T * u)
        decay = np.exp(-xm * sh) * (T * wu)
        out[:, mid] = (np.cos(phase) @ w, np.cos(phase - s) @ w,
                       np.sin(phase) @ w - 2.0 * decay.sum(axis=1),
                       np.sin(phase - s) @ w - 2.0 * (sh * decay).sum(axis=1))
        out[:, mid] /= math.pi
    if large.any():
        xl = x[large]
        P0, Q0, P1, Q1 = ((1.0 / xl)[:, None] ** powers @ hankel).T
        sx, cx = np.sin(xl), np.cos(xl)
        amp = np.sqrt(1.0 / (math.pi * xl))   # sqrt(2/(pi x)) / sqrt(2)
        out[:, large] = (amp * (P0 * (cx + sx) - Q0 * (sx - cx)),
                         amp * (P1 * (sx - cx) + Q1 * (sx + cx)),
                         amp * (P0 * (sx - cx) + Q0 * (cx + sx)),
                         amp * (Q1 * (sx - cx) - P1 * (sx + cx)))
    return out


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f bracketed by f(lo) > 0 >= f(hi), bisected until lo and hi
    are adjacent floats; the end with the smaller |f|."""
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) < abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _window_residual_n3(x: float, d: float) -> float:
    """d j0(x) - x j1(x) = d sin(x)/x - (sin(x)/x - cos(x)).

    For x < 1 both come from their Taylor series, sum_k (-1)^k x^(2k)/(2k+1)!
    and sum_k (-1)^(k+1) 2k x^(2k)/(2k+1)!, free of the cancellation in
    sin(x)/x - cos(x) = x^2/3 - ... that would swamp d near the tiny-window
    root x ~ sqrt(3d).
    """
    if x < 1.0:
        j0 = xj1 = 0.0
        term = 1.0                     # (-1)^k x^(2k) / (2k+1)!
        for k in range(10):
            j0 += term
            xj1 -= 2 * k * term
            term *= -x * x / ((2 * k + 2) * (2 * k + 3))
        return d * j0 - xj1
    sinc = math.sin(x) / x
    return d * sinc - (sinc - math.cos(x))


def small_window_lambda1(n: int, d: float) -> float:
    """First radial eigenvalue of the unit ball with a window of radius d.

    d > 0: Dirichlet at r = d, Neumann at r = 1 (the capacity-window model).
    lambda = k^2 with k the first positive root of the characteristic equation,
    L = 1 - d:

        n = 3:  k cos(kL) = sin(kL)               (u = sin(k (r - d)) / r)
        n = 2:  J1(k) Y0(kd) - Y1(k) J0(kd) = 0   (u = J0(kr) Y0(kd) - Y0(kr) J0(kd))

    d = 0: the all-Dirichlet ball, j_{0,1}^2 (n = 2) or pi^2 (n = 3).

    Each root is bisected to adjacent floats inside a bracket with a sign
    change. n = 3 uses the form d j0(kL) - kL j1(kL) = (k cos(kL) - sin(kL))/k
    in spherical Bessel functions, free of cancellation at small d; it is d at
    k = 0 and -2L/pi at k = pi/(2L). n = 2 brackets its root by a vectorized
    256-point geometric scan of the cross product; J0, J1, Y0, Y1 and j_{0,1}
    come from ``_bessel01``.
    """
    if n not in (2, 3):
        raise ValueError("window solver covers n in {2, 3}")
    if not (0.0 <= d < 1.0):
        raise ValueError("window radius must lie in [0, 1)")
    if d == 0.0:
        return _bisect(lambda k: _bessel01([k])[0, 0], 2.0, 3.0) ** 2 if n == 2 else math.pi ** 2
    L = 1.0 - d
    if n == 3:
        k = _bisect(lambda k: _window_residual_n3(k * L, d), 0.0, math.pi / (2.0 * L))
        return k * k

    def cross(k):
        k = np.atleast_1d(k)
        J0, J1, Y0, Y1 = _bessel01(np.concatenate([k, k * d]))
        m = k.size
        return J1[:m] * Y0[m:] - Y1[:m] * J0[m:]

    # cross is +inf as k -> 0+, and its first root lies below pi/L (the mixed
    # eigenvalue is below the Dirichlet annulus one): scan up to there
    ks = np.geomspace(1e-3, math.pi / L, 256)
    i = int(np.argmax(cross(ks) <= 0.0))
    if i == 0:
        raise RuntimeError(f"no window root below k = pi/(1-d) for n={n}, d={d}")
    k = _bisect(lambda k: float(cross(k)[0]), float(ks[i - 1]), float(ks[i]))
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
    against |log d| (n = 2), to compare with beta/2 scaling, next to the
    ``window_ladder`` it solved (every key of that dict), so a caller that
    prints the ladder too solves each eigenvalue once.
    """
    from .profiles import gn_exponents, sphere_area
    ladder = window_ladder(n, ds)
    ds, lams = ladder["d"], ladder["lambda1"]
    beta = gn_exponents(n, p)[1]
    ball_vol = sphere_area(n - 1) / n
    bounds = np.array([eig_competitor_bound(ball_vol * (1.0 - d ** n), lam, n, p)
                       for d, lam in zip(ds, lams)])
    if n == 2:
        x = np.log(np.abs(np.log(ds)))
        expected = beta / 2.0
    else:
        x = np.log(ds)
        expected = -beta / 2.0 * (n - 2)
    slope = float(np.polyfit(x, np.log(bounds), 1)[0])
    return dict(ladder, bound=bounds, fitted_exponent=slope,
                expected_exponent=float(expected), beta=beta)
