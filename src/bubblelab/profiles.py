"""Model optimizer profiles and cutoffs.

Four profile kinds, all exposing value and gradient in the coordinates the
energy integrals use (tangentially radial (r, t) on the half-space, radial
|y - xi| on full space):

* escobar-halfspace: U(r, t) = c (r^2 + (1+t)^2)^(-(n-2)/2), the harmonic
  half-space extremal of the critical boundary trace problem, normalized to
  unit Dirichlet energy over the half-space.
* aubin-talenti-interior: U(y) = c (lambda / (1 + lambda^2 |y-xi|^2))^((n-2)/2).
* gn-ground-state: the positive radial decreasing solution of
  -Q'' - ((n-1)/r) Q' + Q = Q^p, from a Chebyshev collocation solve on
  [0, L] with the matched Bessel-K tail beyond L. A Petviashvili iteration
  on the half grid picks L and a start; a chord Newton polish at the full
  N reuses one factorization of the Jacobian. The dense algebra (a blocked
  LU) is elementwise numpy and einsum, never BLAS, so its bytes do not
  depend on the BLAS thread count. The
  tabulated profile is a quintic Hermite spline evaluated in numpy from its
  Bernstein coefficients, and K_nu (the Robin row and the tail) is evaluated
  in numpy too, so the module needs no scipy.
* gn-halfspace-near-optimizer: Q centered at depth 2 and multiplied by the
  ramp tanh(t), which vanishes on {t = 0}.

Each kind's formula is written once, in ``RadialProfile._fields``, which
returns the value and the gradient from one evaluation; ``value`` and
``grad`` are its two public views (``value`` skips the derivatives). The
cutoff likewise yields chi_R and chi_R' from one pass.

Profiles are immutable after construction (their tabulated arrays are
read-only views), so the memo and every caller can share one instance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .quadrature import grid_1d, hankel_factors, sorted_unique

__all__ = [
    "RadialProfile", "Cutoff", "MomentDivergentDimension", "ShootingError",
    "escobar_halfspace_optimizer", "aubin_talenti", "gn_ground_state",
    "gn_halfspace_near_optimizer", "cutoff", "sphere_area", "beta_function", "gn_exponents",
    "gn_ode_residual",
]


class MomentDivergentDimension(ValueError):
    """Raised when a requested dimension makes the defining moments diverge."""


class ShootingError(RuntimeError):
    """Raised when the radial collocation solve cannot converge, or when the
    half-space near-optimizer misses its deficit target (``moments.gn_coefficients``)."""


def sphere_area(k: int) -> float:
    """Surface measure of the unit sphere S^k in R^(k+1).

    Gamma((k+1)/2) overflows from k = 343 on; there the quotient is taken
    through lgamma instead."""
    h = (k + 1) / 2.0
    try:
        return 2.0 * math.pi ** h / math.gamma(h)
    except OverflowError:
        return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))


def beta_function(a: float, b: float) -> float:
    """Euler's B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), through lgamma."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# --------------------------------------------------------------------------
# smooth cutoff
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Cutoff:
    """chi_R(y) = chi(|y|/R): 1 on B_R, 0 outside B_2R, |grad| <= C/R.

    chi(1 + s) is the C^infinity exp(-1/s) glue b/(a+b), a = exp(-1/s),
    b = exp(-1/(1-s)), on the band 0 < s < 1. The moment engine reads chi_R
    and chi_R' on its 1-D rho nodes, so both are elementwise in rho.
    """
    R: float

    def __post_init__(self):
        if self.R < 1.0:
            raise ValueError("cutoff radius must be >= 1")

    def _glue(self, rho):
        """(chi_R, chi_R') from one pass: on the glue zone R < rho < 2R,
        chi_R' = -ab (1/s^2 + 1/(1-s)^2) / ((a+b)^2 R); off it chi_R' is 0.
        Off the zone the glue runs at s = 1/2, where it is finite, and is
        discarded."""
        s = np.asarray(rho, dtype=float) / self.R - 1.0
        band = (s > 0.0) & (s < 1.0)
        sb = np.where(band, s, 0.5)
        sc = 1.0 - sb
        a, b = np.exp(-1.0 / sb), np.exp(-1.0 / sc)
        ab = a + b
        chi = np.where(band, b / ab, np.where(s <= 0.0, 1.0, 0.0))
        dchi = np.where(band, -a * b * (1.0 / sb ** 2 + 1.0 / sc ** 2) / (ab ** 2 * self.R), 0.0)
        return chi, dchi

    def __call__(self, rho):
        return self._glue(rho)[0]

    def deriv(self, rho):
        """d chi_R / d rho."""
        return self._glue(rho)[1]


def cutoff(R: float) -> Cutoff:
    return Cutoff(float(R))


# --------------------------------------------------------------------------
# profile container
# --------------------------------------------------------------------------

class _Bernstein:
    """Piecewise polynomial of degree k in Bernstein form (numpy only).

    On [x_i, x_{i+1}] it is sum_j c[j, i] C(k, j) s^j (1 - s)^(k - j) with
    s = (r - x_i) / (x_{i+1} - x_i). A point on a breakpoint takes the piece
    to its right, the last breakpoint the last piece; points outside [x_0,
    x_m] extrapolate the end pieces. The sum stays in Bernstein form: on the
    GN splines it is within 4e-16 Q(0) of scipy's ``BPoly``, where a
    power-basis Horner form is about 5e-15 Q(0) off.
    """

    def __init__(self, c, x):
        self.c = c
        self.x = x

    def __call__(self, r):
        return self.at(*self.locate(r))

    def locate(self, r):
        """(piece index i, [s^j], [(1 - s)^j]) of each point, j = 0..k, with
        s its local coordinate. A derivative spline shares the breakpoints
        and needs lower powers only, so one location serves both."""
        r = np.asarray(r, dtype=float)
        x = self.x
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
        s = (r - x[i]) / (x[i + 1] - x[i])
        sc = 1.0 - s
        k = len(self.c) - 1
        return i, [s ** j for j in range(k + 1)], [sc ** j for j in range(k + 1)]

    def at(self, i, s_pow, sc_pow):
        """The Bernstein sum of piece i from the powers that ``locate`` gives."""
        k = len(self.c) - 1
        return sum(math.comb(k, j) * s_pow[j] * sc_pow[k - j] * self.c[j][i]
                   for j in range(k + 1))

    def derivative(self) -> "_Bernstein":
        """B' = k sum_j (c_{j+1} - c_j) b_{j,k-1} / (x_{i+1} - x_i)."""
        k = len(self.c) - 1
        return _Bernstein(k * np.diff(self.c, axis=0) / np.diff(self.x), self.x)


def _hermite_spline(x, y, dy, d2y=None):
    """Piecewise Hermite interpolant from closed-form Bernstein coefficients.

    Quintic when second derivatives are given: on [x_i, x_i + h] the control
    values are y_i, y_i + h y'_i/5, y_i + 2h y'_i/5 + h^2 y''_i/20, mirrored at
    x_{i+1}. Cubic otherwise: y_i, y_i + h y'_i/3, mirrored. Returns a
    ``_Bernstein`` piecewise polynomial.
    """
    h = np.diff(x)
    y0, y1, d0, d1 = y[:-1], y[1:], h * dy[:-1], h * dy[1:]
    if d2y is None:
        c = [y0, y0 + d0 / 3.0, y1 - d1 / 3.0, y1]
    else:
        e0, e1 = h ** 2 * d2y[:-1] / 20.0, h ** 2 * d2y[1:] / 20.0
        c = [y0, y0 + d0 / 5.0, y0 + 2.0 * d0 / 5.0 + e0,
             y1 - 2.0 * d1 / 5.0 + e1, y1 - d1 / 5.0, y1]
    return _Bernstein(np.array(c), x)


@dataclass(frozen=True)
class RadialProfile:
    """A tangentially radial (half-space) or radial (interior) model profile.

    value/grad take (r, t) for half-space kinds and plain radius for interior
    kinds; all are vectorized over numpy arrays.
    """
    kind: str
    n: int
    amplitude: float
    lam: float = 1.0
    xi: tuple = ()
    p: Optional[float] = None
    # tabulated radial data for GN kinds; derivs2 enables the quintic
    # Hermite interpolant (the ODE supplies exact second derivatives)
    grid: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)
    derivs: Optional[np.ndarray] = field(default=None, repr=False)
    derivs2: Optional[np.ndarray] = field(default=None, repr=False)
    tail_coeff: float = 0.0
    tail_r0: float = 0.0
    shift: float = 0.0
    meta: dict = field(default_factory=dict)
    # interpolant of the tabulated data and its derivative, built once here
    _sp: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)
    _dsp: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only views: memoized profiles are shared by every caller, and
        # the arrays passed in stay writable for their owner
        for name in ("grid", "values", "derivs", "derivs2"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a).view()
                a.flags.writeable = False
                object.__setattr__(self, name, a)
        if self.grid is not None:
            sp = _hermite_spline(self.grid, self.values, self.derivs, self.derivs2)
            object.__setattr__(self, "_sp", sp)
            object.__setattr__(self, "_dsp", sp.derivative())

    # -- evaluation ---------------------------------------------------------
    def value(self, r, t=None):
        return self._fields(r, t, derivs=False)[0]

    def grad(self, r, t=None):
        """Gradient components; ((d/dr, d/dt) for half-space kinds, d/dr else)."""
        _, ur, ut = self._fields(r, t)
        return ur if ut is None else (ur, ut)

    def _fields(self, r, t=None, derivs: bool = True):
        """(u, du/dr, du/dt) from one evaluation of the kind's formula.

        du/dt is None for the radial kinds, which ignore t; with
        ``derivs=False`` both derivatives are None and only u is computed.
        Pieces the value and the gradient share (the Escobar base, the GN
        radius and its spline location) are computed once.
        """
        r = np.asarray(r, dtype=float)
        amp, n = self.amplitude, self.n
        if self.kind == "escobar-halfspace":
            a = 1.0 + np.asarray(t, dtype=float)
            B = r ** 2 + a ** 2
            u = amp * B ** (-(n - 2) / 2.0)
            if not derivs:
                return u, None, None
            base = B ** (-n / 2.0)
            fac = -(n - 2) * amp
            return u, fac * r * base, fac * a * base
        if self.kind == "aubin-talenti-interior":
            lam = self.lam
            u = amp * (lam / (1.0 + lam ** 2 * r ** 2)) ** ((n - 2) / 2.0)
            if not derivs:
                return u, None, None
            return u, u * (-(n - 2) * lam ** 2 * r / (1.0 + lam ** 2 * r ** 2)), None
        if self.kind == "gn-ground-state":
            q, qp = self._radial(r, derivs)
            return amp * q, (amp * qp if derivs else None), None
        if self.kind == "gn-halfspace-near-optimizer":
            t = np.asarray(t, dtype=float)
            dt_ = t - self.shift
            rad = np.sqrt(r ** 2 + dt_ ** 2)
            q, qp = self._radial(rad, derivs)
            ramp = np.tanh(t)
            u = amp * q * ramp
            if not derivs:
                return u, None, None
            safe = np.where(rad > 0, rad, 1.0)
            dramp = np.where(np.abs(t) < 20.0, 1.0 / np.cosh(np.minimum(np.abs(t), 20.0)) ** 2, 0.0)
            gr = amp * qp * (r / safe) * ramp
            gt = amp * (qp * (dt_ / safe) * ramp + q * dramp)
            return u, gr, gt
        raise ValueError(self.kind)

    def _radial(self, r, derivs: bool = True):
        """(max(Q, 0), Q') at |r|, Q' None unless ``derivs``: the interpolant
        on the grid, located once for both splines, and the Bessel-K tail
        beyond it; each only where used."""
        r = np.abs(np.asarray(r, dtype=float))
        inside = r <= self.grid[-1]
        outside = ~inside
        loc = self._sp.locate(r[inside])
        far = r[outside]
        q = np.empty_like(r)
        q[inside] = self._sp.at(*loc)
        q[outside] = _bessel_tail(self.n, self.tail_coeff, far)
        if not derivs:
            return np.maximum(q, 0.0), None
        qp = np.empty_like(r)
        qp[inside] = self._dsp.at(*loc)
        qp[outside] = _bessel_tail(self.n, self.tail_coeff, far, deriv=True)
        return np.maximum(q, 0.0), qp

    # -- norms (closed forms) ------------------------------------------------
    def dirichlet_norm_sq(self) -> float:
        """Full-domain ||grad||_L2^2 (half-space or R^n according to kind)."""
        n = self.n
        if self.kind == "escobar-halfspace":
            # c^2 (n-2)^2 |S^(n-2)| int int r^(n-2) (r^2 + (1+t)^2)^(1-n) dr dt
            return (self.amplitude ** 2 * (n - 2) * sphere_area(n - 2)
                    * 0.5 * beta_function((n - 1) / 2.0, (n - 1) / 2.0))
        if self.kind == "aubin-talenti-interior":
            # dilation invariant: c^2 (n-2)^2 |S^(n-1)| int r^(n+1) (1 + r^2)^(-n) dr
            return (self.amplitude ** 2 * (n - 2) ** 2 * sphere_area(n - 1)
                    * 0.5 * beta_function((n + 2) / 2.0, (n - 2) / 2.0))
        # the GN norms are moments of the engine (``moments.gn_coefficients``)
        raise ValueError(f"no closed-form Dirichlet norm for kind {self.kind}")


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def escobar_halfspace_optimizer(n: int) -> RadialProfile:
    """Normalized harmonic half-space optimizer; rejects n <= 3."""
    if int(n) != n or n <= 3:
        raise MomentDivergentDimension(
            f"moment-divergent dimension n={n}: the defining weighted moments "
            "are finite only for n >= 4")
    n = int(n)
    norm_sq = RadialProfile(kind="escobar-halfspace", n=n, amplitude=1.0).dirichlet_norm_sq()
    if norm_sq == 0.0:
        raise OverflowError(f"the Dirichlet energy of the n={n} half-space optimizer "
                            "underflows float64, so it cannot be normalized")
    return RadialProfile(kind="escobar-halfspace", n=n, amplitude=1.0 / math.sqrt(norm_sq))


def aubin_talenti(n: int, lam: float = 1.0, xi: tuple = ()) -> RadialProfile:
    """Normalized interior bubble; value/grad are functions of |y - xi|."""
    if int(n) != n or n < 3:
        raise ValueError("aubin_talenti requires integer n >= 3")
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    n = int(n)
    norm_sq = RadialProfile(kind="aubin-talenti-interior", n=n, amplitude=1.0).dirichlet_norm_sq()
    # the Dirichlet norm is dilation invariant at the critical scaling
    return RadialProfile(kind="aubin-talenti-interior", n=n,
                         amplitude=1.0 / math.sqrt(norm_sq), lam=float(lam),
                         xi=tuple(xi))


_KV_SERIES_R = 20.0
_KV_TERMS = 20


def _kv(nu: float, r):
    """Modified Bessel function K_nu(r) for r >= 0.5, in numpy.

    For r >= 20, Hankel's expansion sqrt(pi/2r) e^(-r) sum_{k<20} a_k(nu) r^(-k)
    (DLMF 10.40.2, factors ``quadrature.hankel_factors``). For half-integer nu
    it terminates and is the closed form, used at every r. Otherwise, below
    r = 20, K_nu(r) = e^(-r) int_0^T exp(-2r sinh^2(t/2)) cosh(nu t) dt (DLMF
    10.32.9), cut at T = acosh(1 + 40/r), where the exponent is -40, by the
    16-point rule on 3 panels of [0, 1] that Y's Schlaefli integral uses
    (``dynamics._bessel01``), scaled to [0, T]. For 0 <= nu <= 3 the relative
    error is below 4e-15: against 30-digit mpmath on [0.5, 20), scipy beyond.
    A result below the float range is 0, without a warning.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    out = np.empty_like(flat)
    series = (flat >= _KV_SERIES_R) | (nu % 1.0 == 0.5)
    rs, rq = flat[series], flat[~series, None]
    x = 1.0 / rs
    term = total = np.ones_like(x)
    for factor in hankel_factors(nu, _KV_TERMS):
        term = term * factor * x
        total = total + term
    u, w = grid_1d(0.0, 1.0, 16, subdiv=3)
    T = np.arccosh(1.0 + 40.0 / rq)
    t = T * u
    with np.errstate(under="ignore"):
        f = np.exp(-2.0 * rq * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t)
        out[~series] = (f @ w) * T[:, 0] * np.exp(-rq[:, 0])
        out[series] = np.sqrt(np.pi / (2.0 * rs)) * np.exp(-rs) * total
    return out.reshape(r.shape)


def _bessel_tail(n: int, A: float, r, deriv: bool = False):
    """Far field A r^(-nu) K_nu(r), nu = n/2 - 1, or its r-derivative
    -A r^(-nu) K_{nu+1}(r): the decaying solution of Q'' + ((n-1)/r)Q' - Q = 0.

    K_nu is ``_kv``; r is clamped to r >= 0.5, away from the singular center.
    """
    nu = n / 2.0 - 1.0
    r = np.maximum(np.asarray(r, dtype=float), 0.5)
    if deriv:
        return -A * r ** (-nu) * _kv(nu + 1.0, r)
    return A * r ** (-nu) * _kv(nu, r)


def _admissible_gn(n: int, p: float) -> bool:
    if n >= 3:
        return 1.0 < p < (n + 2.0) / (n - 2.0)
    return 1.0 < p < math.inf


def _cheb(N: int):
    """Chebyshev-Lobatto points x_j = cos(pi j/N) with their first and second
    differentiation matrices, built entry by entry (Trefethen, Spectral
    Methods in MATLAB, 2000, ch. 6; Welfert, SIAM J. Numer. Anal. 34 (1997)
    1640, for the second) so that no matrix product is formed."""
    j = np.arange(N + 1)
    x = np.sin(np.pi * (N - 2 * j) / (2.0 * N))
    w = np.where(j % 2 == 0, 1.0, -1.0)          # barycentric weights
    w[[0, N]] *= 0.5
    # x_i - x_j as a product of sines, free of cancellation
    dx = 2.0 * np.sin(np.pi * (j[:, None] + j) / (2.0 * N)) * np.sin(np.pi * (j - j[:, None]) / (2.0 * N))
    np.fill_diagonal(dx, 1.0)
    ratio = w / w[:, None]
    D = ratio / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    D2 = 2.0 * (ratio * np.diag(D)[:, None] - D) / dx
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -D2.sum(axis=1))
    return x, D, D2


_LU_BLOCK = 16


def _lu_factor(A):
    """Partial-pivot LU, eliminated in panels of ``_LU_BLOCK`` columns.

    Within a panel the columns are eliminated by rank-1 updates that touch
    the panel only; the panel's rows of U to its right then follow by
    forward substitution, and the trailing block takes one einsum Schur
    update per panel. Returns the packed factors, the row permutation and
    the inverses of the diagonal blocks of L and U, stacked and padded with
    the identity to whole blocks, which ``_lu_solve`` multiplies by.
    Elementwise numpy and einsum only, never BLAS.
    """
    a = np.array(A, dtype=float)
    m = a.shape[0]
    piv = list(range(m))
    for s in range(0, m, _LU_BLOCK):
        e = min(s + _LU_BLOCK, m)
        for k in range(s, e):
            i = k + int(abs(a[k:, k]).argmax())
            if i != k:
                a[k], a[i] = a[i].copy(), a[k].copy()
                piv[k], piv[i] = piv[i], piv[k]
            if a[k, k] == 0.0:
                raise ShootingError("singular collocation matrix")
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:e] -= a[k + 1:, k, None] * a[k, None, k + 1:e]
        for k in range(s + 1, e):
            a[k, e:] -= np.einsum("j,jc->c", a[k, s:k], a[s:k, e:])
        a[e:, e:] -= np.einsum("ik,kc->ic", a[e:, s:e], a[s:e, e:])
    # the diagonal blocks, inverted by substitution on all blocks at once
    b = _LU_BLOCK
    nb = -(-m // b)
    padded = np.eye(nb * b)
    padded[:m, :m] = a
    blocks = padded.reshape(nb, b, nb, b)[np.arange(nb), :, np.arange(nb)]
    eye = np.broadcast_to(np.eye(b), blocks.shape)
    lower = np.tril(blocks, -1) + eye
    upper = np.triu(blocks)
    linv, uinv = eye.copy(), eye.copy()
    for k in range(1, b):
        linv[:, k] -= np.einsum("bj,bjc->bc", lower[:, k, :k], linv[:, :k])
    for k in range(b - 1, -1, -1):
        uinv[:, k] -= np.einsum("bj,bjc->bc", upper[:, k, k + 1:], uinv[:, k + 1:])
        uinv[:, k] /= upper[:, k, k, None]
    return a, np.array(piv), linv, uinv


def _lu_solve(lu, piv, linv, uinv, b):
    """Solve A y = b from ``_lu_factor``; b is a vector or a matrix of columns.

    Both substitutions run in blocks of ``_LU_BLOCK`` rows: one einsum
    brings in the rows already solved, one more multiplies by the inverse
    of the diagonal block.
    """
    y = np.array(b, dtype=float)[piv]
    m = y.shape[0]
    starts = range(0, m, _LU_BLOCK)
    for k, s in enumerate(starts):
        e = min(s + _LU_BLOCK, m)
        rhs = y[s:e] - np.einsum("ij,j...->i...", lu[s:e, :s], y[:s])
        y[s:e] = np.einsum("ij,j...->i...", linv[k, :e - s, :e - s], rhs)
    for k, s in reversed(list(enumerate(starts))):
        e = min(s + _LU_BLOCK, m)
        rhs = y[s:e] - np.einsum("ij,j...->i...", lu[s:e, e:], y[e:])
        y[s:e] = np.einsum("ij,j...->i...", uinv[k, :e - s, :e - s], rhs)
    return y


def _dct1(v):
    """sum_k w_k v_k cos(pi j k / N), j = 0..N, with w = 1 at k = 0, N and 2
    between: the DCT-I, as the real FFT of the even extension of v."""
    return np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real


# Collocation on [0, L]. L = 14 leaves Q(L)^p below 1e-10 Q(0) for p >= ~1.6;
# closer to p = 1 the profile decays slower and L is stretched. N = 200
# resolves the Chebyshev series of the fixture cases to rounding; the
# concentrated profiles near the critical p take 2N. The Petviashvili start
# and the choice of L run on the half grid, N/2 nodes; at N only the chord
# Newton polish runs, on a single factorization of the Jacobian.
_COLL_L = 14.0
_COLL_N = 200
_RESOLVED_TOL = 1e-9
_ROBIN_TOL = 1e-10
_PETVIASHVILI_TOL = 1e-6
_NEWTON_TOL = 1e-13
# the tabulated profile: 2048 nodes on [0, 40]; L must stay below the end
_GN_GRID_NODES = 2048
_GN_R_MAX = 40.0


def _collocation_operator(n: int, N: int, L: float):
    """Nodes r_j = L (1 - x_j)/2, the derivative rows (each summing to zero)
    and the diagonal that completes the linear operator.

    Rows: the regular centre -n Q'' at r = 0; -Q'' - ((n-1)/r) Q' at the
    interior nodes; at r = L the Robin row Q' + (K_{nu+1}(L)/K_nu(L)) Q of
    the decaying Bessel-K branch, nu = n/2 - 1. The diagonal adds Q on the
    ODE rows and the Robin coefficient on the last.
    """
    x, D, D2 = _cheb(N)
    r = 0.5 * L * (1.0 - x)
    D1 = (-2.0 / L) * D
    D2 = (4.0 / L ** 2) * D2
    op = -D2
    op[1:] -= ((n - 1) / r[1:, None]) * D1[1:]
    op[0] = -n * D2[0]
    op[N] = D1[N]
    nu = n / 2.0 - 1.0
    shift = np.ones(N + 1)
    shift[N] = _kv(nu + 1.0, L) / _kv(nu, L)
    return r, op, shift


def _petviashvili(n: int, p: float, N: int):
    """(L, nodal values of Q) at N nodes from the Petviashvili iteration
    (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42 (2004) 1110).

    From a Gaussian it reaches the ground state's basin, reusing one
    factorization of the linear operator. The Robin row neglects Q^p at
    r = L, so while Q(L)^p exceeds 1e-10 Q(0), L is stretched by the decay
    Q^p ~ exp(-p r) and the iteration rerun.
    """
    L = _COLL_L
    rows = np.ones(N + 1)                         # rows carrying Q^p
    rows[N] = 0.0
    diag = np.arange(N + 1)
    for attempt in range(4):
        r, op, shift = _collocation_operator(n, N, L)
        A = op
        A[diag, diag] += shift
        Ainv = _lu_solve(*_lu_factor(A), np.eye(N + 1))
        Q = np.exp(-r ** 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(1000):
                Qpow = rows * np.abs(Q) ** p
                M = np.einsum("i,i->", Q, np.einsum("ij,j->i", A, Q)) / np.einsum("i,i->", Q, Qpow)
                Qn = M ** (p / (p - 1.0)) * np.einsum("ij,j->i", Ainv, Qpow)
                step = np.max(np.abs(Qn - Q)) / np.max(np.abs(Qn))
                Q = Qn
                if not step > _PETVIASHVILI_TOL:      # converged, or NaN
                    break
        if not step <= _PETVIASHVILI_TOL:
            raise ShootingError(f"Petviashvili iteration did not converge for (n={n}, p={p})")
        excess = abs(Q[N]) ** p / (_ROBIN_TOL * Q[0])
        if excess <= 1.0:
            return L, Q
        if attempt == 3:
            raise ShootingError(
                f"Q(L)^p = {excess * _ROBIN_TOL:.3g} Q(0) > {_ROBIN_TOL} Q(0) at L = {L:.4g} for "
                f"(n={n}, p={p}): the profile decays too slowly for the Robin tail row")
        L += math.log(excess) / p + 1.0


def _collocation_ground_state(n: int, p: float, N: int):
    """(L, nodal values of Q, their Chebyshev coefficients, largest ODE
    residual at the nodes).

    ``_petviashvili`` on the half grid (N/2 nodes, N even) picks L and a
    start, lifted to the N nodes through its Chebyshev coefficients. A chord
    Newton iteration (Kelley, Solving Nonlinear Equations with Newton's
    Method, SIAM 2003, ch. 5) polishes it at N: the Jacobian is factorized
    once and refactorized only after a step that fails to shrink the last
    one tenfold. Raises ShootingError unless Q is positive and decreasing
    and its series is resolved to 1e-9 Q(0).
    """
    half = N // 2
    L, Q = _petviashvili(n, p, half)
    # the half grid's Chebyshev coefficients (a DCT-I) padded with zeros to
    # degree N, then summed at the N + 1 nodes by the DCT-I, which weighs c_0
    # by 1 and the others by 2: so c_0 stays doubled and only the top
    # coefficient of the half grid is halved
    c = np.zeros(N + 1)
    c[:half + 1] = _dct1(Q) / half
    c[half] *= 0.5
    Q = 0.5 * _dct1(c)
    r, op, shift = _collocation_operator(n, N, L)
    rows = np.ones(N + 1)
    rows[N] = 0.0
    diag = np.arange(N + 1)

    def residual(Q):
        # op Q as sum_j op_ij (Q_j - Q_i): small differences meet the large
        # entries next to the clustered end points
        return (np.einsum("ij,ij->i", op, Q - Q[:, None]) + shift * Q
                - rows * np.abs(Q) ** p)

    lu, last = None, math.inf
    for _ in range(8):
        if lu is None:
            J = op.copy()
            J[diag, diag] += shift
            J[diag, diag] -= rows * p * np.abs(Q) ** (p - 1.0)
            lu = _lu_factor(J)
        dQ = _lu_solve(*lu, -residual(Q))
        Q = Q + dQ
        size = np.max(np.abs(dQ))
        if size <= _NEWTON_TOL * Q[0]:
            break
        if not size <= 0.1 * last:
            lu = None
        last = size
    else:
        raise ShootingError(f"Newton polish did not converge for (n={n}, p={p})")
    if not (np.all(Q > 0.0) and np.all(np.diff(Q) < 0.0)):
        raise ShootingError(
            f"collocation solve for (n={n}, p={p}) left the positive decreasing ground state")
    c = _dct1(Q) / N
    c[[0, N]] *= 0.5
    trailing = np.max(np.abs(c[-8:]))
    if trailing > _RESOLVED_TOL * Q[0]:
        raise ShootingError(
            f"Chebyshev series of (n={n}, p={p}) not resolved at N={N}: trailing "
            f"coefficients {trailing:.3g} > {_RESOLVED_TOL} Q(0)")
    return L, Q, c, float(np.max(np.abs(residual(Q)[:N])))


def gn_ground_state(n: int, p: float) -> RadialProfile:
    """Ground state of -Q'' - ((n-1)/r)Q' + Q = Q^p by Chebyshev collocation.

    On [0, L] the profile is the Chebyshev series of the collocation solution;
    beyond L (``tail_r0``; 14 unless p is near 1) it is the matched decaying
    far-field branch A r^(1-n/2) K_{n/2-1}(r). ``meta`` carries Q(0) and the
    largest ODE residual at the collocation nodes. The start comes from the
    half grid (100 nodes), and the polish at N = 200 factorizes the Jacobian
    once unless a chord step stalls. A solve that fails at N = 200 nodes is
    repeated at 400. Raises ShootingError when that fails
    too (it converges, stays positive and decreasing, and resolves the
    series to 1e-9 Q(0) up to p = 4.8 at n = 3 and p = 15 at n = 2), or when
    no L below the grid's end r = 40 makes Q(L)^p negligible against Q(0).
    """
    if int(n) != n or n < 2:
        raise ValueError("gn_ground_state requires integer n >= 2")
    if not _admissible_gn(int(n), float(p)):
        raise ValueError(
            f"subcritical-range violation: need 1 < p < (n+2)/(n-2) for n>=3, got n={n}, p={p}")
    n, p = int(n), float(p)
    try:
        L, Q, c, residual = _collocation_ground_state(n, p, _COLL_N)
    except ShootingError:
        L, Q, c, residual = _collocation_ground_state(n, p, 2 * _COLL_N)
    if L >= _GN_R_MAX:
        raise ShootingError(f"(n={n}, p={p}) decays too slowly: the Robin row needs "
                            f"L = {L:.4g} >= r_max = {_GN_R_MAX}")
    b = float(Q[0])
    tail_coeff = float(Q[-1]) / float(_bessel_tail(n, 1.0, L))

    # tabulation grid: uniform head + geometric body, the head spacing ~2e-3
    # keeping the quintic interpolant's h^4 term small
    head = np.linspace(0.0, 1.0, _GN_GRID_NODES // 4 + 1)[:-1]
    geo = np.geomspace(1.0, _GN_R_MAX, _GN_GRID_NODES - _GN_GRID_NODES // 4)
    grid = sorted_unique(np.concatenate([head, geo]))
    vals = np.empty_like(grid)
    ders = np.empty_like(grid)
    inside = grid <= L
    # numpy.polynomial loads here, so a process that builds no GN profile never does
    from numpy.polynomial.chebyshev import chebder, chebval
    x = 1.0 - 2.0 * grid[inside] / L
    vals[inside] = chebval(x, c)
    ders[inside] = (-2.0 / L) * chebval(x, chebder(c))
    ders[0] = 0.0
    out = ~inside
    vals[out] = _bessel_tail(n, tail_coeff, grid[out])
    ders[out] = _bessel_tail(n, tail_coeff, grid[out], deriv=True)

    # exact second derivatives from the ODE itself (linearized on the tail)
    ders2 = np.empty_like(grid)
    safe_r = np.maximum(grid, 1e-300)
    ders2[inside] = (vals - np.abs(vals) ** p - (n - 1) / safe_r * ders)[inside]
    ders2[0] = (b - b ** p) / n
    ders2[out] = vals[out] - (n - 1) / grid[out] * ders[out]

    return RadialProfile(kind="gn-ground-state", n=n, amplitude=1.0, p=p,
                         grid=grid, values=vals, derivs=ders, derivs2=ders2,
                         tail_coeff=tail_coeff, tail_r0=L,
                         meta={"Q0": b, "residual": residual})


# depth of the near-optimizer's center: its relative Weinstein deficit
# (C* - W)/C* is 0.5-6.3% at p in [1.1, 7] for n = 2 and [1.1, 4] for
# n = 3, within the relative bound W >= 0.9 C* that
# ``moments.gn_coefficients`` checks.
_NEAR_OPTIMIZER_SHIFT = 2.0


def gn_halfspace_near_optimizer(Q: RadialProfile) -> RadialProfile:
    """Dirichlet near-optimizer on the half-space: Q(|(r, t - 2)|) tanh(t).

    Shares the ground state's tabulated arrays.
    """
    if Q.kind != "gn-ground-state":
        raise ValueError("the near-optimizer is built from the GN ground state")
    return replace(Q, kind="gn-halfspace-near-optimizer", shift=_NEAR_OPTIMIZER_SHIFT,
                   meta={"Q0": Q.meta.get("Q0")})


# --------------------------------------------------------------------------
# GN exponents and the ODE residual
# --------------------------------------------------------------------------

def gn_exponents(n: int, p: float) -> tuple[float, float]:
    """(alpha, beta) with alpha = 2 - (n-2)(p-1)/2, beta = n(p-1)/2."""
    return 2.0 - (n - 2) * (p - 1) / 2.0, n * (p - 1) / 2.0


def gn_ode_residual(Q: RadialProfile, r) -> np.ndarray:
    """-Q'' - ((n-1)/r) Q' + Q - Q^p evaluated from the tabulated interpolant."""
    if Q.kind != "gn-ground-state":
        raise ValueError("residual check applies to the tabulated ground state")
    r = np.asarray(r, dtype=float)
    q = np.maximum(Q._sp(r), 0.0)
    return -Q._dsp.derivative()(r) - (Q.n - 1) / r * Q._dsp(r) + q - q ** Q.p
