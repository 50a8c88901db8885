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
center is a critical point of Rmass. The search runs Newton on the field
alone from the k starts of every seed at once (fields evaluate batches of
points), merges the limits into points, and turns each seed whose starts
reach k distinct points into that configuration.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollisionError", "CircleDomain", "TorusDomain",
    "ExpressionField", "GridField", "InteractionKernel", "Configuration",
    "center_potential", "reduced_functional", "scale_jacobian", "ScaleJacobianReport",
    "critical_point_search", "CriticalPoint", "quantized_levels",
    "balance_law_residual",
]


class CollisionError(ValueError):
    """Two centers coincide; the interaction kernel blows up."""


# --------------------------------------------------------------------------
# parameter domains
# --------------------------------------------------------------------------

def _wrap(delta):
    return (np.asarray(delta) + math.pi) % (2.0 * math.pi) - math.pi


def _row_norm(v):
    """Euclidean norm over the last axis; the same bits as ``np.linalg.norm``
    of each row on its own."""
    return np.sqrt(np.vecdot(v, v))


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _diff(a, b):
    """Wrapped coordinate differences of points; the last axis holds the
    coordinates."""
    return np.atleast_1d(_wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


# Distances and their gradients act on (..., dim) arrays of points and reduce
# the last axis; one pair of points gives a float.

@dataclass(frozen=True)
class CircleDomain:
    """Unit circle parametrized by an angle; geodesic distance on radius 1."""
    dim: int = 1

    def distance(self, a, b):
        return _scalar(np.abs(_diff(a, b)[..., 0]))

    def dist_grad(self, a, b):
        w = _diff(a, b)
        if np.any(w == 0.0):
            raise CollisionError("coincident centers")
        return _scalar(np.abs(w[..., 0])), np.sign(w)


@dataclass(frozen=True)
class TorusDomain:
    """Flat torus (product of unit circles)."""
    dim: int = 2

    def distance(self, a, b):
        return _scalar(_row_norm(_diff(a, b)))

    def dist_grad(self, a, b):
        w = _diff(a, b)
        d = _row_norm(w)
        if np.any(d == 0.0):
            raise CollisionError("coincident centers")
        return _scalar(d), w / np.asarray(d)[..., None]


# --------------------------------------------------------------------------
# fields on parameter domains
# --------------------------------------------------------------------------

_EVAL_NS = {name: getattr(np, name) for name in
            ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh",
             "arctan", "arcsin", "arccos")}
_EVAL_NS["pi"] = math.pi
_FD_STEP = 1e-5   # central-difference step of ExpressionField


class _Field:
    """Batched evaluation: ``values`` and ``derivatives`` take an (m, dim)
    array of points; ``value``, ``grad`` and ``hess`` are the one-point case."""
    dim: int

    def _row(self, x):
        return np.asarray(x, dtype=float).reshape(1, self.dim)

    def value(self, x) -> float:
        return float(self.values(self._row(x))[0])

    def grad(self, x) -> np.ndarray:
        return self.derivatives(self._row(x))[0][0]

    def hess(self, x) -> np.ndarray:
        return self.derivatives(self._row(x))[1][0]


class ExpressionField(_Field):
    """Scalar field from a numpy expression in theta (or theta1..thetad).

    Derivatives by central differences of step ``_FD_STEP`` (the search
    declares convergence on the same finite-difference gradient it iterates
    with). All stencil points of a batch go through one evaluation of the
    expression; an expression without theta is broadcast.
    """

    def __init__(self, expr: str, dim: int = 1):
        self.expr = expr
        self.dim = dim
        code = compile(expr, "<field>", "eval")
        for name in code.co_names:
            if name not in _EVAL_NS and not name.startswith("theta"):
                raise ValueError(f"disallowed name in field expression: {name}")
        self._code = code
        # stencil point = (x + first) + second: +-h e_i for the gradient
        # (second = -0.0 adds nothing), then (+-hh e_i) +- hh e_j, i <= j,
        # for the Hessian
        h = _FD_STEP
        self._hh = h ** 0.5 * 1e-2 + h
        self._pairs = np.triu_indices(dim)
        e, f = np.eye(dim) * h, np.eye(dim) * self._hh
        first = [s * e[i] for i in range(dim) for s in (1.0, -1.0)]
        second = [np.full(dim, -0.0)] * (2 * dim)
        for i, j in zip(*self._pairs):
            for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                first.append(si * f[i])
                second.append(sj * f[j])
        self._first = np.array(first)[:, None, :]
        self._second = np.array(second)[:, None, :]

    def values(self, X) -> np.ndarray:
        cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
        ns = dict(_EVAL_NS)
        ns["theta"] = cols[0]
        for i in range(self.dim):
            ns[f"theta{i + 1}"] = cols[i]
        out = eval(self._code, {"__builtins__": {}}, ns)
        return np.broadcast_to(np.asarray(out, dtype=float), cols.shape[1:])

    def derivatives(self, X) -> tuple:
        """(gradients (m, dim), Hessians (m, dim, dim)) from one evaluation."""
        X = np.asarray(X, dtype=float)
        m, dim = X.shape
        v = self.values(((X + self._first) + self._second).reshape(-1, dim))
        v = v.reshape(len(self._first), m)
        g = ((v[0:2 * dim:2] - v[1:2 * dim:2]) / (2.0 * _FD_STEP)).T
        q = v[2 * dim:].reshape(len(self._pairs[0]), 4, m)
        hij = ((q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3]) / (4.0 * self._hh * self._hh)).T
        H = np.empty((m, dim, dim))
        I, J = self._pairs
        H[:, I, J] = hij
        H[:, J, I] = hij
        return g, H


class GridField(_Field):
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
# critical-point search for the center-only potential
# --------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    centers: np.ndarray
    value: float
    grad_norm: float
    inertia: tuple                       # (n_negative, n_zero, n_positive)
    degenerate: bool = False


def _newton_steps(A, b):
    """Solve every row's A x = b at once; if that raises, row by row, and a
    singular row gives ``ok = False``."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.ones(len(b), bool)
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        ok = np.zeros(len(b), bool)
        for r in range(len(b)):
            try:
                x[r] = np.linalg.solve(A[r], b[r])
                ok[r] = True
            except np.linalg.LinAlgError:
                pass
        return x, ok


# Newton converges quadratically at a Morse critical point, so successive
# steps shrink by far more than this ratio; at a degenerate one (W'' = 0
# along some direction) it converges linearly, with ratio (m-1)/m at a zero
# of multiplicity m of the gradient.
_LINEAR_RATIO = 0.25
# limits closer than this are one point
_MERGE_TOL = 1e-6
# the bound on a configuration's gradient norm, and the Newton steps per start
_GRAD_TOL = 1e-8
_MAX_ITER = 600


def critical_point_search(field, k: int, domain=None, seeds: int = 64,
                          seed: int = 0) -> list:
    """Multi-seed Newton search for critical points of W_k.

    Each seed draws k starts, and every start runs Newton on the field
    alone: each step evaluates the field once on every active start and makes
    one batched solve, and per-start masks apply the stopping and
    singular-Hessian rules. A start converges at gradient norm
    _GRAD_TOL / sqrt(k), so the joined gradient of k converged centers is at
    most _GRAD_TOL.

    A limit is flagged ``degenerate`` (not Morse) when its last two Newton
    steps shrink by a ratio in [1/4, 1], i.e. converge linearly; its inertia
    then counts as zero every Hessian eigenvalue of magnitude at most
    2 |H u|, u the unit last step. The converged limits are merged into
    points closer than max(_MERGE_TOL, 2 (r_a + r_b)), r the distance to the
    limit of a degenerate start's geometric steps (0 when Morse); a point is
    represented by its first degenerate limit if it has one, else by its
    first limit. A seed whose k starts reach k distinct points gives that
    configuration, with the merged points as its centers: its value and
    inertia are sums over the centers, its gradient norm is that of the
    joined gradients, and it is degenerate when any center is.
    """
    domain = domain or CircleDomain()
    dim = domain.dim
    rng = np.random.default_rng(seed)

    # constant-field degeneracy: the gradient vanishes identically
    probes = rng.uniform(0.0, 2.0 * math.pi, size=(8, k * dim)).reshape(-1, dim)
    g, Hs = field.derivatives(probes)
    if np.max(_row_norm(g.reshape(8, -1))) < 1e-12:
        return [CriticalPoint(probes[:k] % (2 * math.pi), float(sum(field.values(probes[:k]))),
                              0.0, _inertia(Hs[:k]), degenerate=True)]

    # start s k + i is center i of seed s
    X = rng.uniform(0.0, 2.0 * math.pi, size=(seeds, k * dim)).reshape(-1, dim)
    tol = _GRAD_TOL / math.sqrt(k)
    ok = np.ones(len(X), bool)
    active = ok.copy()
    step_norm = np.full((len(X), 2), np.nan)   # the previous and the last step
    last_step = np.zeros_like(X)
    eye = 1e-12 * np.eye(dim)
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        g, Hm = field.derivatives(X[idx])
        moving = ~(_row_norm(g) <= tol)
        active[idx[~moving]] = False
        if not moving.any():
            break
        idx = idx[moving]
        step, solved = _newton_steps(Hm[moving] + eye, -g[moving])
        ok[idx[~solved]] = active[idx[~solved]] = False
        idx, step = idx[solved], step[solved]
        nrm = _row_norm(step)
        big = nrm > 1.0
        step[big] *= (1.0 / nrm[big])[:, None]
        X[idx] = X[idx] + step
        step_norm[idx, 0] = step_norm[idx, 1]
        step_norm[idx, 1] = np.minimum(nrm, 1.0)
        last_step[idx] = step

    idx = np.flatnonzero(ok)
    g, Hs = field.derivatives(X[idx])
    conv = _row_norm(g) <= tol
    idx, g, Hs = idx[conv], g[conv], Hs[conv]
    vals = field.values(X[idx])
    centers = X[idx] % (2 * math.pi)
    ratio = step_norm[idx, 1] / step_norm[idx, 0]
    degenerate = (_LINEAR_RATIO <= ratio) & (ratio <= 1.0)
    r = np.minimum(ratio, 0.9)
    radius = np.where(degenerate, step_norm[idx, 1] * r / (1.0 - r), 0.0)
    zero_tol = np.full(len(idx), 1e-7)
    for j in np.flatnonzero(degenerate):
        u = last_step[idx[j]] / step_norm[idx[j], 1]
        zero_tol[j] = max(zero_tol[j], 2.0 * float(_row_norm(Hs[j] @ u)))

    reps, label = [], np.full(len(X), -1)
    for j in range(len(idx)):
        q = np.asarray(reps, int)
        merge_tol = np.maximum(_MERGE_TOL, 2.0 * (radius[j] + radius[q]))
        near = np.flatnonzero(domain.distance(centers[j], centers[q]) <= merge_tol)
        if near.size:
            if degenerate[j] and not degenerate[reps[near[0]]]:
                reps[near[0]] = j
            label[idx[j]] = near[0]
        else:
            label[idx[j]] = len(reps)
            reps.append(j)

    configs = {}
    for row in label.reshape(seeds, k):
        key = tuple(sorted(set(row.tolist())))
        if len(key) == k and key[0] >= 0:
            configs.setdefault(key, [reps[q] for q in key])
    js = np.array(list(configs.values()), int).reshape(-1, k)
    grad_norms = _row_norm(g[js].reshape(len(js), k * dim))
    found = [CriticalPoint(centers[row], float(sum(vals[row])), float(gn),
                           _inertia(Hs[row], zero_tol[row]), bool(degenerate[row].any()))
             for row, gn in zip(js, grad_norms)]
    found.sort(key=lambda c: c.value)
    return found


def _inertia(H: np.ndarray, tol=1e-7) -> tuple:
    """(negative, zero, positive) eigenvalue counts of a stack of symmetric
    matrices, summed; |eigenvalue| <= tol (one per matrix) counts as zero."""
    ev = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))
    tol = np.asarray(tol)[..., None]
    return (int(np.sum(ev < -tol)), int(np.sum(np.abs(ev) <= tol)),
            int(np.sum(ev > tol)))
