"""Reduced multi-bubble potential, interaction kernel, and critical-point search.

The finite-dimensional model evaluated here is the displayed truncation

    F_k(x, eps) = k + (n-1) sum_i (rho H(x_i) eps_i + eps_i^2 Rmass(x_i))
                    + (n-1) sum_{i != j} c (eps_i eps_j)^((n-2)/2) G(x_i, x_j)

of the k-bubble quotient power (J_k/S*)^(n-1); its remainder is dropped by
design, so every claim in this module is about the truncated model. The
interaction kernel is the singular law G = a d^(2-n) (a d^(-1) in n = 3);
the kernel units a and the interaction constant c are model units (the
analysis fixes neither number). F_k, its scale derivatives (the Jacobian of
the scale-stationarity system) and the balance law (its center gradient)
all read one batched distance matrix and the kernel matrix G built on it.

Center-only potential: W_k(x) = sum_i Rmass(x_i) is a sum of one-center
terms, so a configuration of distinct centers is critical exactly when each
center is a critical point of Rmass. The search finds Rmass's critical set
once, by Newton's method on exact (jet) derivatives from a grid of starts
sized from the field, and lists each k-subset of it as one configuration.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "CollisionError", "CircleDomain", "TorusDomain",
    "ExpressionField", "GridField", "InteractionKernel", "Configuration",
    "center_potential", "reduced_functional", "scale_jacobian", "ScaleJacobianReport",
    "critical_point_search", "CriticalPoint", "CriticalConfigurations",
    "TooManyConfigurations", "quantized_levels", "balance_law_residual",
]


class CollisionError(ValueError):
    """Two centers coincide; the interaction kernel blows up."""


# --------------------------------------------------------------------------
# parameter domains
# --------------------------------------------------------------------------

def _row_norm(v):
    """Euclidean norm over the last axis; the same bits as ``np.linalg.norm``
    of each row on its own."""
    return np.sqrt(np.vecdot(v, v))


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _diff(a, b):
    """Coordinate differences of points wrapped to [-pi, pi); the last axis
    holds the coordinates."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.atleast_1d((d + math.pi) % (2.0 * math.pi) - math.pi)


# Distances and their gradients act on (..., dim) arrays of points and reduce
# the last axis; one pair of points gives a float.

class TorusDomain(NamedTuple):
    """Flat torus (product of unit circles); ``dim`` = 1 is the circle."""
    dim: int = 2

    def distance(self, a, b):
        return _scalar(_row_norm(_diff(a, b)))

    def dist_grad(self, a, b):
        w = _diff(a, b)
        d = _row_norm(w)
        if np.any(d == 0.0):
            raise CollisionError("coincident centers")
        return _scalar(d), w / np.asarray(d)[..., None]


class CircleDomain(NamedTuple):
    """Unit circle parametrized by an angle; geodesic distance on radius 1."""
    dim: int = 1
    distance, dist_grad = TorusDomain.distance, TorusDomain.dist_grad


# --------------------------------------------------------------------------
# fields on parameter domains
# --------------------------------------------------------------------------

class _Jet:
    """Second-order forward-mode jet (Griewank & Walther, *Evaluating
    Derivatives*, ch. 13): values v (m,), gradients g (m, dim) and Hessians
    H (m, dim, dim) in theta_i, exact to rounding through every operator and
    every name of ``_EVAL_NS``."""
    __array_ufunc__ = None               # numpy scalars defer to the reflected operators

    def __init__(self, v, g, H):
        self.v, self.g, self.H = v, g, H

    def chain(self, f, derivs):
        """f(self), where f'(u), f''(u) = derivs(u, f(u))."""
        v = f(self.v)
        d1, d2 = derivs(self.v, v)
        gg = self.g[:, :, None] * self.g[:, None, :]
        return _Jet(v, d1[:, None] * self.g, d1[:, None, None] * self.H + d2[:, None, None] * gg)

    def _lift(self, c):
        return c if isinstance(c, _Jet) else _Jet(c + 0.0 * self.v, 0.0 * self.g, 0.0 * self.H)

    def __add__(self, o):
        o = self._lift(o)
        return _Jet(self.v + o.v, self.g + o.g, self.H + o.H)

    def __mul__(self, o):
        o = self._lift(o)
        cross = self.g[:, :, None] * o.g[:, None, :]
        return _Jet(self.v * o.v, self.v[:, None] * o.g + o.v[:, None] * self.g,
                    self.v[:, None, None] * o.H + o.v[:, None, None] * self.H
                    + cross + np.swapaxes(cross, 1, 2))

    def __pow__(self, o):
        if isinstance(o, _Jet):                             # u^w = exp(w log u)
            return _EVAL_NS["exp"](o * _EVAL_NS["log"](self))
        return self.chain(lambda u: u ** o, lambda u, v: (   # no 0 u^-1 for o = 0 or 1
            o * u ** (o - 1 if o else 0), o * (o - 1) * u ** (o - 2 if o * (o - 1) else 0)))

    __radd__, __rmul__ = __add__, __mul__
    __pos__ = lambda self: self
    __neg__ = lambda self: self * -1.0
    __sub__ = lambda self, o: self + -o
    __rsub__ = lambda self, o: -self + o
    __truediv__ = lambda self, o: self * o ** -1.0
    __rtruediv__ = lambda self, o: self ** -1.0 * o
    __rpow__ = lambda self, c: _EVAL_NS["exp"](self * np.log(c))    # c^u = exp(u log c)


def _apply(f, derivs, x):
    return x.chain(f, derivs) if isinstance(x, _Jet) else f(x)


# the names an expression may use: f, and (u, f(u)) -> (f'(u), f''(u))
_EVAL_NS = {"pi": math.pi, **{name: partial(_apply, *fd) for name, fd in {
    "sin": (np.sin, lambda u, v: (np.cos(u), -v)),
    "cos": (np.cos, lambda u, v: (-np.sin(u), -v)),
    "tan": (np.tan, lambda u, v: (1.0 + v * v, 2.0 * v * (1.0 + v * v))),
    "exp": (np.exp, lambda u, v: (v, v)),
    "log": (np.log, lambda u, v: (1.0 / u, -1.0 / (u * u))),
    "sqrt": (np.sqrt, lambda u, v: (0.5 / v, -0.25 / (v * u))),
    "abs": (np.abs, lambda u, v: (np.sign(u), 0.0 * u)),
    "tanh": (np.tanh, lambda u, v: (1.0 - v * v, -2.0 * v * (1.0 - v * v))),
    "arctan": (np.arctan, lambda u, v: (1.0 / (1.0 + u * u), -2.0 * u / (1.0 + u * u) ** 2)),
    "arcsin": (np.arcsin, lambda u, v: (1.0 / np.sqrt(1.0 - u * u), u / (1.0 - u * u) ** 1.5)),
    "arccos": (np.arccos, lambda u, v: (-1.0 / np.sqrt(1.0 - u * u), -u / (1.0 - u * u) ** 1.5)),
}.items()}}

# the search's start grid: >= _GRID_MIN points per axis, <= _GRID_MAX in all
_GRID_MIN = 64
_GRID_MAX = 2 ** 14
_CHOP_TOL = 1e-13


def _grid(n: int, dim: int) -> np.ndarray:
    """The n^dim points 2 pi j / n of the uniform tensor grid, (n^dim, dim)."""
    return np.indices((n,) * dim).reshape(dim, -1).T * (2.0 * math.pi / n)


class ExpressionField:
    """Scalar field from a numpy expression in theta (or theta1..thetad); as
    for ``GridField``, ``values`` and ``derivatives`` take (m, dim) points.
    Derivatives come from one evaluation on jets; a constant is broadcast."""

    def __init__(self, expr: str, dim: int = 1):
        self.expr = expr
        self.dim = dim
        code = compile(expr, "<field>", "eval")
        for name in code.co_names:
            if name not in _EVAL_NS and not name.startswith("theta"):
                raise ValueError(f"disallowed name in field expression: {name}")
        self._code = code

    def grid_size(self) -> int:
        """Points per axis of a grid that resolves the field: n doubles until
        the trigonometric interpolant's coefficients above n/8 are at most
        _CHOP_TOL of the largest (a chop as in Chebfun's trigfun, SIAM J. Sci.
        Comput. 37 (2015) C554)."""
        n = _GRID_MIN
        while n ** self.dim < _GRID_MAX:
            c = np.abs(np.fft.fftn(self.values(_grid(n, self.dim)).reshape((n,) * self.dim)))
            freq = np.abs(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * self.dim, indexing="ij"))
            if np.all(c[freq.max(axis=0) > n // 8] <= _CHOP_TOL * np.max(c)):
                break
            n *= 2
        return n

    def _eval(self, thetas):
        ns = {**_EVAL_NS, "theta": thetas[0], **{f"theta{i + 1}": t for i, t in enumerate(thetas)}}
        return eval(self._code, {"__builtins__": {}}, ns)

    def values(self, X) -> np.ndarray:
        cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
        return np.broadcast_to(np.asarray(self._eval(cols), dtype=float), cols.shape[1:])

    def derivatives(self, X) -> tuple:
        """(gradients (m, dim), Hessians (m, dim, dim)) from one evaluation."""
        X = np.asarray(X, dtype=float)
        zero = np.zeros(X.shape + X.shape[-1:])
        out = self._eval([_Jet(x, e + zero[:, 0], zero) for x, e in zip(X.T, np.eye(X.shape[1]))])
        out = out if isinstance(out, _Jet) else _Jet(out, zero[:, 0], zero)   # no theta
        return out.g + zero[:, 0], out.H + zero


class GridField:
    """Periodic field from samples on a uniform angle grid (cubic spline).

    The periodic spline's knot slopes s_i solve the circulant system
    s_{i-1} + 4 s_i + s_{i+1} = 3 (y_{i+1} - y_{i-1}) / h, h = 2 pi / N, with
    eigenvalues 4 + 2 cos(2 pi j / N): one FFT division solves it. The
    cubic Hermite pieces are ``profiles._hermite_spline``, the evaluator of
    the GN profiles.
    """

    def __init__(self, samples):
        from .profiles import _hermite_spline
        y = np.asarray(samples, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("field samples must be a non-empty list of numbers")
        N = y.size
        rhs = 3.0 * (np.roll(y, -1) - np.roll(y, 1)) / (2.0 * math.pi / N)
        eig = 4.0 + 2.0 * np.cos(2.0 * math.pi * np.arange(N // 2 + 1) / N)
        slopes = np.fft.irfft(np.fft.rfft(rhs) / eig, n=N)
        theta = np.linspace(0.0, 2.0 * math.pi, N + 1)
        self._sp = _hermite_spline(theta, np.append(y, y[0]), np.append(slopes, slopes[0]))
        self._dsp = self._sp.derivative()
        self._d2sp = self._dsp.derivative()
        self.dim = 1
        self.knots = N

    def grid_size(self) -> int:
        """The knots, within the search grid's floor and cap."""
        return min(max(self.knots, _GRID_MIN), _GRID_MAX)

    @staticmethod
    def _angles(X):
        return np.asarray(X, dtype=float)[:, 0] % (2.0 * math.pi)

    def values(self, X) -> np.ndarray:
        return self._sp(self._angles(X))

    def derivatives(self, X) -> tuple:
        t = self._angles(X)
        return self._dsp(t)[:, None], self._d2sp(t)[:, None, None]


# --------------------------------------------------------------------------
# interaction kernel
# --------------------------------------------------------------------------

@dataclass
class InteractionKernel:
    """Renormalized boundary-to-boundary kernel a d^(-e): e = n - 2, and
    e = 1 in n = 3. ``value`` and ``deriv`` take a distance or an array of
    them; an infinite distance gives 0."""
    n: int
    a: float = 1.0                       # singular coefficient, model units

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("kernel defined for n >= 3")
        if self.a <= 0:
            raise ValueError("singular coefficient must be positive")

    @property
    def exponent(self) -> float:
        return 1.0 if self.n == 3 else float(self.n - 2)

    def value(self, d):
        if np.any(np.asarray(d) <= 0.0):
            raise CollisionError("kernel evaluated at zero separation")
        return self.a * d ** (-self.exponent)

    def deriv(self, d):
        if np.any(np.asarray(d) <= 0.0):
            raise CollisionError("kernel derivative at zero separation")
        return -self.exponent * self.a * d ** (-self.exponent - 1.0)


# --------------------------------------------------------------------------
# configurations and the truncated functional
# --------------------------------------------------------------------------

@dataclass
class Configuration:
    """Ordered k-tuple of boundary centers and scales on a parameter domain."""
    domain: object
    centers: np.ndarray                  # (k, dim)
    scales: np.ndarray                   # (k,)
    mass_field: object = None            # Rmass(x) on the domain
    h_field: object = None               # H(x) on the domain

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        if self.centers.shape[0] != self.scales.size:
            raise ValueError("centers/scales length mismatch")
        if np.any(self.scales <= 0):
            raise ValueError("scales must be positive")

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _at_centers(config: Configuration, fld) -> np.ndarray:
    """A field's values at all centers; zeros for an absent field."""
    return np.zeros(config.k) if fld is None else fld.values(config.centers)


def center_potential(config: Configuration) -> float:
    """W_k = sum_i Rmass(x_i)."""
    return float(np.sum(_at_centers(config, config.mass_field)))


def _kernel_matrix(config: Configuration, kernel: InteractionKernel):
    """Distances D (k, k) from one batched call, with an infinite diagonal,
    and G = kernel(D), whose diagonal is 0; a zero off-diagonal distance
    raises ``CollisionError``."""
    X = config.centers
    D = config.domain.distance(X[:, None], X[None, :])
    np.fill_diagonal(D, np.inf)
    return D, kernel.value(D)


def _truncation(constants, eps, mass, h, G):
    """F_k, dF/d eps (k,) and d2F/d eps2 (k, k) of the truncation at scales
    eps, from Rmass and H at the centers and the kernel matrix G."""
    n = constants.n
    rho, c = constants.rho_conf, constants.c_conf
    a = (n - 2) / 2.0
    w1 = eps ** (a - 1.0)
    Gw = np.einsum("ij,j->i", G, eps ** a)        # sum_{j != i} eps_j^a G_ij
    pair = np.einsum("ij,ij->", (eps[:, None] * eps[None, :]) ** a, G)
    F = eps.size + (n - 1) * (np.sum(rho * h * eps + eps ** 2 * mass) + c * pair)
    dF = (n - 1) * (rho * h + 2.0 * eps * mass + 2.0 * c * a * w1 * Gw)
    d2F = (n - 1) * 2.0 * c * a ** 2 * np.einsum("i,ij,j->ij", w1, G, w1)
    d2F[np.diag_indices(eps.size)] = (n - 1) * (
        2.0 * mass + 2.0 * c * a * (a - 1.0) * eps ** (a - 2.0) * Gw)
    return float(F), dF, d2F


# the separation ratio below which the truncated expansion is uncontrolled
_LAMBDA_MIN = 2.0


def reduced_functional(config: Configuration, kernel: InteractionKernel,
                       constants) -> float:
    """Truncated F_k = (J_k/S*)^(n-1); warns below the separation threshold."""
    D, G = _kernel_matrix(config, kernel)
    eps = config.scales
    ratio = float(np.min(D / (eps[:, None] + eps[None, :])))
    if ratio < _LAMBDA_MIN:
        warnings.warn(f"separation ratio {ratio:.3g} below "
                      f"Lambda = {_LAMBDA_MIN}; truncation error uncontrolled",
                      stacklevel=2)
    return _truncation(constants, eps, _at_centers(config, config.mass_field),
                       _at_centers(config, config.h_field), G)[0]


@dataclass
class ScaleJacobianReport:
    matrix: np.ndarray
    diagonal: np.ndarray
    gershgorin_radii: np.ndarray
    diagonally_dominant: bool
    limit_diagonal: np.ndarray          # 2 S* k^(-2/q) Rmass(x_i)


def scale_jacobian(config: Configuration, kernel: InteractionKernel,
                   constants) -> ScaleJacobianReport:
    """Analytic eps-Jacobian of the scale-stationarity system of the truncation.

    F_i = d/d eps_i of J_k = S* F_k^(1/(n-1)); returns d F_i / d eps_j with a
    Gershgorin dominance report. As eps -> 0 the diagonal tends to
    2 S* k^(-2/q) Rmass(x_i).
    """
    n = constants.n
    mass = _at_centers(config, config.mass_field)
    h = _at_centers(config, config.h_field)
    if np.any(np.abs(h) > 1e-12):
        warnings.warn("scale Jacobian structure assumes H = 0 at the centers",
                      stacklevel=2)
    gamma = 1.0 / (n - 1)
    S = constants.S_star
    F, dF, d2F = _truncation(constants, config.scales, mass, h,
                             _kernel_matrix(config, kernel)[1])
    # chain rule through J_k = S* F^gamma
    M = S * gamma * (F ** (gamma - 1.0) * d2F
                     + (gamma - 1.0) * F ** (gamma - 2.0) * np.outer(dF, dF))
    diag = np.diag(M)
    radii = np.sum(np.abs(M), axis=1) - np.abs(diag)
    limit = 2.0 * S * config.k ** (-(n - 2.0) / (n - 1.0)) * mass
    return ScaleJacobianReport(M, diag.copy(), radii, bool(np.all(np.abs(diag) > radii)),
                               limit)


def quantized_levels(k: int, n: int, S_star: float) -> float:
    """Energy level of a k-bubble configuration: k^(1/(n-1)) S*."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    return float(k ** (1.0 / (n - 1)) * S_star)


def balance_law_residual(config: Configuration, kernel: InteractionKernel,
                         constants) -> np.ndarray:
    """Per-center rho grad H(x_i) + 2 c sum_j eps_i^(a-1) eps_j^a G'(d_ij)
    grad_1 d(x_i, x_j): the x_i-gradient of F_k over (n-1) eps_i when there
    is no mass field."""
    n = constants.n
    a = (n - 2) / 2.0
    k, dim = config.centers.shape
    X, eps = config.centers, config.scales
    I, J = np.nonzero(~np.eye(k, dtype=bool))     # ordered pairs, row by row
    d, dgrad = config.domain.dist_grad(X[I], X[J])
    coef = 2.0 * constants.c_conf * eps[I] ** (a - 1.0) * eps[J] ** a * kernel.deriv(d)
    out = np.einsum("ij,ijd->id", coef.reshape(k, k - 1),
                    np.reshape(dgrad, (k, k - 1, dim)))
    if config.h_field is not None:
        out += constants.rho_conf * config.h_field.derivatives(X)[0]
    return out


# --------------------------------------------------------------------------
# critical points of the center-only potential
# --------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    centers: np.ndarray
    value: float
    grad_norm: float
    inertia: tuple                       # (n_negative, n_zero, n_positive)
    degenerate: bool = False

    @property
    def kind(self) -> str:
        """"degenerate" if flagged or if a Hessian eigenvalue is zero; else
        "minimum" at index 0, "maximum" at index k dim, "saddle" between."""
        negative, zero, _ = self.inertia
        if self.degenerate or zero:
            return "degenerate"
        return ("minimum" if negative == 0 else
                "maximum" if negative == self.centers.size else "saddle")


class CriticalConfigurations(list):
    """By value; ``index_sum``: sum (-1)^index over R's points, None if degenerate."""
    index_sum = None


class TooManyConfigurations(ValueError):
    """C(m, k) exceeds ``_MAX_CONFIGURATIONS``."""


# Newton stops at a step <= _STEP_TOL, which finds a simple root to rounding. A
# limit is critical at gradient norm <= _GRAD_TOL max(1, h), h the largest
# Hessian entry on the grid: exact derivatives reach the rounding of R' (1e-15
# on test fields; difference stencils stalled near 1e-9), and one ulp of angle
# near 2 pi moves R' by 8.9e-16 h. Eigenvalues <= _DEGENERATE_TOL h are zero.
_STEP_TOL = 1e-14
_MAX_ITER = 100
_GRAD_TOL = 1e-12
_DEGENERATE_TOL = 1e-6
_MERGE_TOL = 1e-6                        # limits closer than this are one point
_MAX_CONFIGURATIONS = 10_000


def _newton(field, X, h):
    """Newton on R' from each row of X, steps clipped to length h (least-norm if singular)."""
    X, active = X.copy(), np.arange(len(X))
    for _ in range(_MAX_ITER):
        g, H = field.derivatives(X[active])
        try:
            step = np.linalg.solve(H, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = -(np.linalg.pinv(H) @ g[..., None])[..., 0]
        nrm = _row_norm(step)
        X[active] += step * (h / np.maximum(nrm, h))[:, None]
        active = active[nrm > _STEP_TOL]
        if not active.size:
            break
    return X


def _polish(field, x):
    """Secant on R'' from angles x (m, 1): a degenerate point is a simple root of R''."""
    a, b = x + 1e-7, x
    fa, fb = (field.derivatives(p)[1][:, :, 0] for p in (a, b))
    for _ in range(_MAX_ITER):
        a, b, fa = b, b - fb * (b - a) / np.where(fb != fa, fb - fa, np.inf), fb
        fb = field.derivatives(b)[1][:, :, 0]
        if not np.any(np.abs(b - a) > _STEP_TOL):
            break
    return b


def critical_point_search(field, k: int, domain=None, seeds: int = 64,
                          seed: int = 0) -> CriticalConfigurations:
    """Every critical configuration of W_k, once: the k-subsets of R's
    critical set. Newton's method with exact derivatives runs from each point
    of a uniform grid of ``field.grid_size()`` points per axis, steps clipped
    to the grid spacing, and the critical limits are merged into points; on
    the circle a degenerate point is polished as the simple root of R'' that
    it is. A configuration's value and inertia are sums over its centers, its
    gradient norm is that of the joined gradients, and it is degenerate when
    any center is. Centers lie in [0, 2 pi) (within _STEP_TOL of 2 pi is 0).
    A Morse set must have sum (-1)^index = chi = 0 of the circle and the
    torus (Poincare-Hopf; Milnor, *Morse Theory*): a set that breaks it, or an
    empty one, raises RuntimeError. A constant field gives k grid points.
    ``seeds`` and ``seed`` are accepted for compatibility and change nothing.
    """
    domain = domain or CircleDomain()
    dim = domain.dim
    with np.errstate(all="ignore"):       # a start at a singularity of R does not converge
        n = field.grid_size()
        g, H = field.derivatives(_grid(n, dim))
        hscale = np.max(np.abs(H))
        zero_tol, grad_tol = _DEGENERATE_TOL * hscale, _GRAD_TOL * max(1.0, hscale)
        if np.max(_row_norm(g)) <= _GRAD_TOL:
            X, zero_tol = _grid(k, dim)[:k], np.inf
        else:
            X = _newton(field, _grid(n, dim), 2.0 * math.pi / n)
        flat = np.flatnonzero((np.abs(field.derivatives(X)[1][:, 0, 0]) <= zero_tol) & (dim == 1))
        x = _polish(field, X[flat])
        ok = _row_norm(field.derivatives(x)[0]) <= grad_tol
        X[flat[ok]] = x[ok]
        g, H = field.derivatives(X)
    free, reps = np.flatnonzero(_row_norm(g) <= grad_tol), []
    while free.size:
        reps.append(free[0])
        free = free[domain.distance(X[free], X[free[0]]) > _MERGE_TOL]
    P = X[reps] % (2.0 * math.pi)
    P[P > 2.0 * math.pi - _STEP_TOL] = 0.0
    order = np.lexsort(P.T[::-1])
    P, g, ev = P[order], g[reps][order], np.linalg.eigvalsh(H[reps][order])
    counts = np.stack([ev < -zero_tol, np.abs(ev) <= zero_tol, ev > zero_tol], -1).sum(1)
    degenerate, out = counts[:, 1] > 0, CriticalConfigurations()
    if not degenerate.any():
        out.index_sum = int(np.sum((-1) ** counts[:, 0]))
        if out.index_sum or not len(P):
            raise RuntimeError(f"the critical set breaks the Poincare-Hopf count: {len(P)} Morse "
                               f"points with sum (-1)^index = {out.index_sum}, where chi = 0")
    if math.comb(len(P), k) > _MAX_CONFIGURATIONS:
        raise TooManyConfigurations(f"{len(P)} critical points give C({len(P)}, {k}) = "
                                    f"{math.comb(len(P), k)} configurations, over {_MAX_CONFIGURATIONS}")
    vals = field.values(P)
    out.extend(sorted((CriticalPoint(P[r], float(sum(vals[r])), float(_row_norm(g[r].ravel())),
                                     tuple(int(c) for c in counts[r].sum(0)),
                                     bool(degenerate[r].any()))
                       for r in map(list, itertools.combinations(range(len(P)), k))),
                      key=lambda c: c.value))
    return out
