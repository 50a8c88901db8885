"""Energy quotients of pushed-forward bubbles over metric jets.

Every quotient here is an integral of a tangentially radial profile against
polynomial metric jets. The angular variables are integrated out exactly:
isotropic moments of the direction vector omega on the sphere close all jet
contractions (odd moments vanish; even moments are delta-pairing sums), so
each energy reduces to a 2D (half-space) or 1D (interior) quadrature of the
profile against a polynomial in (eps*r, eps*t).

That reduction makes the eps-dependence of every integral an exact
polynomial with coefficients computed once per (geometry, profile, cutoff):
a single quadrature pass yields the entire eps-sweep, and the Taylor
coefficients of the quotient in eps come from the same numbers, which is
what the estimator error-rate tests use as ground truth.

One engine, ``halfspace_moment_matrix``, computes every truncated moment in
the package: the half-space and interior matrices of the models below and
the truncated moment tables and GN boundary moments of ``moments``.

The matrix does not depend on the jet, so the engine memoizes it in a
process-wide LRU of ``_MEMO_CAP`` entries keyed by (profile fingerprint, R,
spec, p_exponent, t_offset). The fingerprint covers every field that profile
evaluation reads (scalars plus a digest of the tabulated arrays, not
``meta``), so an equal profile hits whatever its ``meta`` holds: a copy
with equal arrays, or ``normalized()`` of the unit-amplitude closed form. A
build that raises is not stored. Cached arrays are read-only because every
model with the same key shares them. The GN profiles of
``fixtures.cached_gn_profiles`` use the same memo.

The jet reductions share that LRU too, keyed by ``_jet_fingerprint``: the
content of every field a reduction reads, never ``chart_radius``, ``label``
or the object's ``id``, so equal jets share one read-only reduction. A model
turns each (polynomial, matrix) pair into per-term products when it is
built, and keeps the jet scalars it reads: it is a snapshot of its jet at
construction, and changing the point data in place reaches only models
built afterwards.

Escobar numerator (covariant graph form, rescaled coordinates):

    N(eps) = int g^ij(eps y) d_i w d_j w sqrt|g(eps y)| dy
             + c_n_scal * Scal_g * eps^2 int w^2 sqrt|g| dy
             + ((n-2)/2) * eps * H * int_{y_n=0} w^2 dsigma(eps y')

with c_n_scal = (n-2)/(4(n-1)), w = chi_R * U, and the quotient divides by
the boundary L^q mass to the power 2/q. The plain-trace functional uses the
pure Dirichlet denominator and the mean-zero gauge; the GN functional uses
the three bulk norms.
"""
from __future__ import annotations

import hashlib
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .geometry import FermiJetMetric, InteriorPointData, geometry_catalog, fermi_jet
from .profiles import RadialProfile, cutoff, gn_exponents, sphere_area
from .quadrature import QuadratureSpec, DEFAULT_QUAD, grid_1d

if TYPE_CHECKING:
    from .moments import EscobarConstants

__all__ = [
    "BubbleParams", "QuotientResult", "DeficitSweep", "ChartOverflowError",
    "QuadratureNonConvergence", "escobar_quotient", "plain_trace_quotient",
    "gn_quotient", "deficit_series", "channel_fit_second_order",
    "ChannelFitResult", "HalfspaceEnergyModel", "InteriorEnergyModel",
    "fit_power_series", "empirical_slope",
]


class ChartOverflowError(ValueError):
    """Bubble support eps * 2R exceeds the chart radius."""


class QuadratureNonConvergence(RuntimeError):
    """Two-resolution difference far above the declared convergence level."""


# --------------------------------------------------------------------------
# isotropic sphere moments
# --------------------------------------------------------------------------

def _pairings(idx: tuple) -> list:
    if not idx:
        return [[]]
    first, rest = idx[0], idx[1:]
    out = []
    for k, j in enumerate(rest):
        sub = rest[:k] + rest[k + 1:]
        for tail in _pairings(sub):
            out.append([(first, j)] + tail)
    return out


_LETTERS = "abcdefgh"


@lru_cache(maxsize=None)
def _pairing_subscripts(k: int) -> tuple:
    """einsum subscripts contracting k tensor slots by each delta pairing."""
    subs = []
    for pairing in _pairings(tuple(range(k))):
        sub = [None] * k
        for letter, (i, j) in zip(_LETTERS, pairing):
            sub[i] = sub[j] = letter
        subs.append("".join(sub))
    return tuple(subs)


def sphere_average(T, m: int) -> float:
    """Average of T_{i1..ik} omega_{i1}..omega_{ik} over the unit sphere S^(m-1).

    Zero for odd k; for even k the delta-pairing sum divided by
    m (m+2) ... (m+k-2). Exact for any tensor, any m >= 1.
    """
    T = np.asarray(T, dtype=float)
    k = T.ndim
    if k == 0:
        return float(T)
    if k % 2 == 1:
        return 0.0
    denom = 1.0
    for j in range(0, k, 2):
        denom *= (m + j)
    total = 0.0
    for sub in _pairing_subscripts(k):
        total += float(np.einsum(sub, T))
    return total / denom


def _poly_add(poly: dict, key: tuple, val: float) -> None:
    if abs(val) > 0.0:
        poly[key] = poly.get(key, 0.0) + val


# --------------------------------------------------------------------------
# process-wide memo: moment matrices and jet reductions
# --------------------------------------------------------------------------

_MEMO_CAP = 64   # entries: a few kB of 5x5 arrays or polynomials, ~0.5 MB for a GN pair
_memo: OrderedDict = OrderedDict()


def _memoized(key: tuple, build: Callable):
    """``build()`` through the process-wide LRU; exceptions are not stored."""
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    value = build()
    _memo[key] = value
    while len(_memo) > _MEMO_CAP:
        _memo.popitem(last=False)
    return value


def _digest(*arrays) -> str:
    """SHA-1 over the shapes and float64 bytes of ``arrays`` (None allowed)."""
    digest = hashlib.sha1()
    for a in arrays:
        if a is None:
            digest.update(b"none;")
        else:
            a = np.ascontiguousarray(a, dtype=float)
            digest.update(f"{a.shape};".encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def _profile_fingerprint(profile: RadialProfile) -> tuple:
    """Hashable identity of everything ``value``/``grad`` read (not ``meta``)."""
    return (profile.kind, profile.n, profile.amplitude, profile.lam,
            tuple(profile.xi), profile.p, profile.tail_coeff, profile.tail_r0,
            profile.shift, _digest(profile.grid, profile.values, profile.derivs,
                                   profile.derivs2))


def _jet_fingerprint(jet) -> tuple:
    """Hashable identity of everything a jet reduction reads.

    A Fermi jet: its order, n, ric_nn and the II, gradT_II, gradT_H,
    riemann_bdy and r_anbn arrays; an interior point: n, scal and ric. Not
    ``label`` or ``chart_radius``. The point data is mutable, so the key is
    built from its content at the time of the call, never from its ``id``.
    """
    if isinstance(jet, InteriorPointData):
        return ("interior", jet.n, jet.scal, _digest(jet.ric))
    d = jet.data
    return ("fermi", jet.order, d.n, d.ric_nn,
            _digest(d.II, d.gradT_II, d.gradT_H, d.riemann_bdy, d.r_anbn))


# --------------------------------------------------------------------------
# reduced jet polynomials
# --------------------------------------------------------------------------

class _JetReduction(NamedTuple):
    """A jet's angular-averaged polynomials and the scalars the quotients read.

    P_tan, P_sca and P_bdy weigh the tangential gradient, the scalar terms
    and the boundary traces; the boundary scalars are zero at an interior
    point. Shared through the memo, so the polynomials are read-only.
    """
    P_tan: MappingProxyType
    P_sca: MappingProxyType
    P_bdy: MappingProxyType = MappingProxyType({})
    H: float = 0.0
    kappa_vol: float = 0.0
    grad_h_norm: float = 0.0   # |gradT H| and the top eigenvalue of Ric_bar clipped
    ric_top: float = 0.0       # at 0: the off-axis terms of _check_jet_positivity


def _halfspace_jet_polys(jet: FermiJetMetric) -> _JetReduction:
    """Angular-averaged jet polynomials in (X, Y) = (eps r, eps t).

    P_tan holds the coefficients of the tangential-gradient weight
    <(w^T g^ab w) sqrt|g|>, P_sca those of the scalar weight <sqrt|g|> (which
    also multiplies d_n w by g^nn = 1), P_bdy those of the boundary density.
    Memoized by ``_jet_fingerprint``.
    """
    return _memoized(("jet", _jet_fingerprint(jet)), lambda: _reduce_halfspace_jet(jet))


def _reduce_halfspace_jet(jet: FermiJetMetric) -> _JetReduction:
    # Term tensors carry one omega slot per y'-contraction; the tangential
    # gradient contributes two more.
    m = jet.data.m
    I = np.eye(m)
    # sqrt|g| terms: (x-power, y-power, tensor with x-power omega slots)
    s_terms = [
        (0, 0, np.asarray(1.0)),
        (0, 1, np.asarray(-jet.H)),
        (1, 1, -jet.gradH),
        (0, 2, np.asarray(jet.kappa_vol)),
        (2, 0, -jet.ric_bar / 6.0),
    ]
    # g^ab terms: tensors listed with their position slots first, then (a, b)
    g_terms = [
        (0, 0, I),
        (0, 1, 2.0 * jet.II),
        (2, 0, np.transpose(jet.Rbar, (1, 3, 0, 2)) / 3.0),   # (c,d,a,b)
        (1, 1, 2.0 * jet.gradII),                              # (c,a,b)
        (0, 2, jet.A_up),
    ]
    P_sca: dict = {}
    for px, py, T in s_terms:
        _poly_add(P_sca, (px, py), sphere_average(T, m))
    P_tan: dict = {}
    for gx, gy, TG in g_terms:
        for sx, sy, TS in s_terms:
            T = np.multiply.outer(TG, TS)
            _poly_add(P_tan, (gx + sx, gy + sy), sphere_average(T, m))
    P_bdy = {(0, 0): 1.0}
    _poly_add(P_bdy, (2, 0), -float(np.trace(jet.ric_bar)) / (6.0 * m))
    return _JetReduction(
        MappingProxyType(P_tan), MappingProxyType(P_sca), MappingProxyType(P_bdy),
        H=jet.H, kappa_vol=jet.kappa_vol,
        grad_h_norm=float(np.sqrt(np.sum(jet.gradH ** 2))),
        ric_top=max(float(np.linalg.eigvalsh(jet.ric_bar)[-1]), 0.0))


def _interior_jet_polys(data: InteriorPointData) -> _JetReduction:
    """Same reduction for the normal-coordinate jet at an interior point
    (no boundary: P_bdy is empty). Memoized like ``_halfspace_jet_polys``."""
    return _memoized(("jet", _jet_fingerprint(data)), lambda: _reduce_interior_jet(data))


def _reduce_interior_jet(data: InteriorPointData) -> _JetReduction:
    n = data.n
    I = np.eye(n)
    k = data.scal / (n * (n - 1)) if n >= 2 else 0.0
    riem = k * (np.einsum("ij,kl->ikjl", I, I) - np.einsum("il,kj->ikjl", I, I))
    s_terms = [(0, np.asarray(1.0)), (2, -data.ric / 6.0)]
    g_terms = [(0, I), (2, np.transpose(riem, (1, 3, 0, 2)) / 3.0)]
    P_sca: dict = {}
    for px, T in s_terms:
        _poly_add(P_sca, (px, 0), sphere_average(T, n))
    P_tan: dict = {}
    for gx, TG in g_terms:
        for sx, TS in s_terms:
            _poly_add(P_tan, (gx + sx, 0), sphere_average(np.multiply.outer(TG, TS), n))
    return _JetReduction(MappingProxyType(P_tan), MappingProxyType(P_sca))


# --------------------------------------------------------------------------
# moment matrices: one quadrature pass per (profile, cutoff)
# --------------------------------------------------------------------------

_HALFSPACE_KINDS = ("escobar-halfspace", "gn-halfspace-near-optimizer")
_POWERS = np.arange(5)[:, None]   # monomial exponents 0..4 on each axis


def _read_only(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is not None:
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _HalfspaceMatrix:
    """Monomial-weighted integrals of the truncated profile.

    tan/nor/w2/w1/pp are 5x5 arrays, [i, j] = int weight * r^i t^j measure,
    with weight in {w_r^2, w_t^2, w^2, w, |w|^(p+1)}; tr2/trq/trq1 (5x1) are
    the boundary analogues over {t = 0}. For radial profiles t is the single
    node 0, so column 0 holds the 1-D moments, tan = (w')^2 and nor = 0.
    delta maps each name to its fine - coarse difference. Instances are
    shared through the memo, so every array and ``delta`` are read-only.
    """
    n: int
    R: float
    tan: np.ndarray
    nor: np.ndarray
    w2: np.ndarray
    w1: np.ndarray
    pp: Optional[np.ndarray]
    tr2: np.ndarray
    trq: np.ndarray
    trq1: np.ndarray
    err: float
    delta: MappingProxyType


def halfspace_moment_matrix(profile: RadialProfile, R: float,
                            spec: QuadratureSpec = DEFAULT_QUAD,
                            p_exponent: Optional[float] = None,
                            t_offset: float = 0.0) -> _HalfspaceMatrix:
    """Every truncated moment of chi_R * profile, from two resolutions.

    Half-space kinds integrate over [0, 2R] x [0, 2R + t_offset] with measure
    |S^(n-2)| r^(n-2); radial kinds over [0, 2R] with |S^(n-1)| r^(n-1). On
    each resolution every grid point is evaluated once: the profile yields
    (u, u_r, u_t) from one call on the broadcast (r, t) axes, the cutoff
    yields chi_R and, on the band R < rho < 2R only, chi_R'. Every monomial
    moment comes from contracting the fields with the weighted Vandermonde
    rows of each axis. Raises QuadratureNonConvergence when the resolutions
    disagree. Memoized by (profile fingerprint, R, spec, p_exponent, t_offset).
    """
    key = ("matrix", _profile_fingerprint(profile), float(R), spec, p_exponent,
           float(t_offset))
    return _memoized(key, lambda: _build_moment_matrix(profile, R, spec, p_exponent,
                                                       t_offset))


def _build_moment_matrix(profile: RadialProfile, R: float, spec: QuadratureSpec,
                         p_exponent: Optional[float], t_offset: float) -> _HalfspaceMatrix:
    n = profile.n
    halfspace = profile.kind in _HALFSPACE_KINDS
    dim = n - 1 if halfspace else n          # dimension of the r variable
    om = sphere_area(dim - 1)
    chi = cutoff(R)
    cut_edges = (R, 1.5 * R)  # conform panels to the cutoff transition zone

    def run(sp: QuadratureSpec):
        r, wr = grid_1d(0.0, 2.0 * R, sp.order, sp.subdiv, extra=cut_edges)
        if not halfspace:
            t, wt = np.zeros(1), np.ones(1)
        elif t_offset == 0.0:
            t, wt = r, wr
        else:
            t, wt = grid_1d(0.0, 2.0 * R + t_offset, sp.order, sp.subdiv, extra=cut_edges)
        # the (r, t) grid as broadcast axes; radial kinds ignore t (= 0)
        rg, tg = r[:, None], t[None, :]
        u, ur, ut = profile._fields(rg, tg)
        rho = np.sqrt(rg ** 2 + tg ** 2)
        c, band, dc = chi._glue(rho)
        # chi' vanishes off the band R < rho < 2R, where its terms add only
        # a signed zero that squaring removes; rho > R on the band
        ib, jb = np.divmod(band, t.size)
        udc = np.take(u, band) * dc
        rho_b = np.take(rho, band)
        tan = c * ur
        tan.reshape(-1)[band] += udc * (r[ib] / rho_b)
        if ut is None:
            nor = np.zeros_like(tan)
        else:
            nor = c * ut
            nor.reshape(-1)[band] += udc * (t[jb] / rho_b)
        w = c * u
        fields = {"tan": np.square(tan, out=tan), "nor": np.square(nor, out=nor),
                  "w2": w ** 2, "w1": w}
        if p_exponent is not None:
            fields["pp"] = np.abs(w) ** (p_exponent + 1.0)
        # two einsum steps: no (grid x grid x monomial) temporary, and no
        # multithreaded BLAS call, which is far slower on these small shapes
        Vr = r ** _POWERS * (wr * om * r ** (dim - 1))
        Vt = t ** _POWERS * wt
        out = {name: np.einsum("jb,ib->ij", Vt, np.einsum("ia,ab->ib", Vr, F))
               for name, F in fields.items()}
        # boundary traces (critical exponent defined for n >= 3; the GN
        # half-space profiles are Dirichlet and never use these)
        if halfspace and n >= 3:
            q = 2.0 * (n - 1) / (n - 2)
            ub = chi(r) * profile.value(r, 0.0)
            traces = {"tr2": ub ** 2, "trq": np.abs(ub) ** q, "trq1": np.abs(ub) ** (q - 1.0)}
            out.update((name, np.einsum("ia,a->i", Vr, dens)[:, None])
                       for name, dens in traces.items())
        else:
            out.update((name, np.zeros((5, 1))) for name in ("tr2", "trq", "trq1"))
        return out

    coarse = run(spec)
    fine = run(spec.refined())
    delta = {k: fine[k] - coarse[k] for k in fine}
    # np.max, unlike the builtin, propagates a nan from any field
    err = float(np.max([np.max(np.abs(delta[k]) / np.maximum(1.0, np.abs(fine[k])))
                        for k in fine]))
    if not err <= max(1e-6, 100.0 * spec.rtol):   # a nan difference fails too
        raise QuadratureNonConvergence(
            f"moment matrix two-resolution difference {err:.2e} at R={R}")
    fine.setdefault("pp", None)
    return _HalfspaceMatrix(
        n=n, R=float(R), err=err,
        delta=MappingProxyType({k: _read_only(v) for k, v in delta.items()}),
        **{k: _read_only(v) for k, v in fine.items()})


# truncated Taylor-series helpers ------------------------------------------

def _ser_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    K = len(a)
    out = np.zeros(K)
    for i in range(K):
        for j in range(K - i):
            out[i + j] += a[i] * b[j]
    return out


def _ser_pow(a: np.ndarray, alpha: float) -> np.ndarray:
    """(a0 + a1 x + ...)^alpha with a0 > 0, truncated at len(a)."""
    K = len(a)
    a0 = a[0]
    u = a / a0
    # log series
    lg = np.zeros(K)
    x = u.copy(); x[0] = 0.0
    term = x.copy()
    for k in range(1, K):
        lg += ((-1) ** (k + 1) / k) * term
        term = _ser_mul(term, x)
    lg *= alpha
    # exp series
    out = np.zeros(K); out[0] = 1.0
    term = np.zeros(K); term[0] = 1.0
    for k in range(1, K):
        term = _ser_mul(term, lg) / k
        out += term
    return out * a0 ** alpha


def _ser_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _ser_mul(a, _ser_pow(b, -1.0))


# --------------------------------------------------------------------------
# energy models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BubbleParams:
    """One concentrating bubble: profile, scale, cutoff, amplitude."""
    profile: RadialProfile
    eps: float
    R: float
    amplitude: float = 1.0
    chart_radius: float = 1.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("scale eps must be positive")
        if self.eps * 2.0 * self.R > self.chart_radius + 1e-12:
            raise ChartOverflowError(
                f"bubble support eps*2R = {self.eps * 2 * self.R} exceeds "
                f"chart radius {self.chart_radius}")


@dataclass
class QuotientResult:
    functional: str
    eps: float
    R: float
    numerator: float
    denominator: float
    quotient: float
    reference: float
    deficit: float
    breakdown: dict = field(default_factory=dict)
    err_estimate: float = 0.0


# (matrix field, jet polynomial) pairs the quotients contract: the
# tangential weight with tan, the scalar weight with nor and the bulk norms,
# the boundary density with the traces
_PAIRS = (("tan", "P_tan"), ("nor", "P_sca"), ("w2", "P_sca"), ("w1", "P_sca"),
          ("pp", "P_sca"), ("tr2", "P_bdy"), ("trq", "P_bdy"), ("trq1", "P_bdy"))


class HalfspaceEnergyModel:
    """All boundary-bubble quotients of one (jet, profile, cutoff) triple.

    Evaluation at any eps and the exact eps-Taylor series share the same
    moment matrix, so sweep values and series truths are mutually consistent
    to quadrature precision. A model is a snapshot of its jet at
    construction: changing the point data afterwards does not reach it.
    """
    gn_functional = "gn-boundary"

    def __init__(self, jet: FermiJetMetric, profile: RadialProfile, R: float,
                 spec: QuadratureSpec = DEFAULT_QUAD,
                 p_exponent: Optional[float] = None):
        self.jet = jet
        self._setup(_halfspace_jet_polys(jet), profile, R, spec, p_exponent,
                    t_offset=getattr(profile, "shift", 0.0))
        # Scal_g reads scal_bdy and its override, which the reduction does not
        self._scal = jet.data.scal_ambient if jet.order >= 2 else 0.0

    def _setup(self, red: _JetReduction, profile: RadialProfile, R: float,
               spec: QuadratureSpec, p_exponent: Optional[float],
               t_offset: float = 0.0) -> None:
        """Set-up of both models: jet reduction, moment matrix, term lists.

        Each (polynomial, matrix field) pair becomes the list of
        (c * M[i, j], i + j) in the polynomial's order. The sums below form
        c * M[i, j] first and add in that order, so they round exactly as
        term-by-term sums over the polynomial would.
        """
        self.profile = profile
        self.R = float(R)
        self.n = profile.n
        self.spec = spec
        self.p_exponent = p_exponent
        self.P_tan, self.P_sca, self.P_bdy = red.P_tan, red.P_sca, red.P_bdy
        self._H, self._kappa_vol = red.H, red.kappa_vol
        self._grad_h_norm, self._ric_top = red.grad_h_norm, red.ric_top
        self.M = halfspace_moment_matrix(profile, R, spec, p_exponent, t_offset=t_offset)
        self._terms = {}
        for name, poly in _PAIRS:
            matrix = getattr(self.M, name)
            if matrix is not None:
                self._terms[name] = [(c * matrix[key], key[0] + key[1])
                                     for key, c in getattr(red, poly).items()]
        # the eps-dependent parts (positive total degree): deficits are built
        # from these so that quotient-minus-flat never loses precision to
        # cancellation of the O(1) parts
        self._dterms = {name: [t for t in terms if t[1] > 0]
                        for name, terms in self._terms.items()}
        self._J0 = self.M.tan[0, 0] + self.M.nor[0, 0]

    def _eval(self, name: str, eps: float) -> float:
        return sum(cm * eps ** d for cm, d in self._terms[name])

    def _delta(self, name: str, eps: float) -> float:
        return sum(cm * eps ** d for cm, d in self._dterms[name])

    def _series(self, name: str, order: int) -> np.ndarray:
        out = np.zeros(order + 1)
        for cm, d in self._terms[name]:
            if d <= order:
                out[d] += cm
        return out

    # -- raw integrals -------------------------------------------------------
    def dirichlet(self, eps: float) -> float:
        return self._eval("tan", eps) + self._eval("nor", eps)

    def bulk_mass2(self, eps: float) -> float:
        return self._eval("w2", eps)

    def bulk_pp(self, eps: float) -> float:
        return self._eval("pp", eps)

    def trace2(self, eps: float) -> float:
        return self._eval("tr2", eps)

    def traceq(self, eps: float) -> float:
        return self._eval("trq", eps)

    # -- Escobar -------------------------------------------------------------
    def escobar_numerator_terms(self, eps: float) -> dict:
        n = self.n
        return {
            "gradient": self.dirichlet(eps),
            "scal": (n - 2) / (4.0 * (n - 1)) * self._scal * eps ** 2 * self.bulk_mass2(eps),
            "H_boundary": (n - 2) / 2.0 * eps * self._H * self.trace2(eps),
        }

    def _check_jet_positivity(self, eps: float) -> None:
        """Warn when the jet's volume element may be non-positive on the support.

        On |y'| <= rho = 2R eps, 0 <= t <= t_deep, the jet's
        sqrt|g| = 1 - (H + gradH.y') t + kappa_vol t^2 - Ric_bar[y', y']/6 is
        at least 1 - (H + |gradH| rho) t + kappa_vol t^2 - lam+ rho^2/6, with
        lam+ the top eigenvalue of Ric_bar clipped at 0. That quadratic in t
        takes its minimum at an end of [0, t_deep] or at its vertex.

        A warning, not an error: the bound covers a cylinder around the
        support and pairs the worst y' of two terms, so it can fire where the
        volume element is positive; and the quotient stays the jet model's
        polynomial in eps, which the series and the sweeps use as such.
        """
        t_deep = eps * (2.0 * self.R + getattr(self.profile, "shift", 0.0))
        rho = 2.0 * self.R * eps
        b = self._H + self._grad_h_norm * rho
        a = self._kappa_vol
        vertex = min(max(b / (2.0 * a), 0.0), t_deep) if a > 0.0 else 0.0
        low = min(1.0 - b * t + a * (t * t) for t in (0.0, t_deep, vertex))
        if low - self._ric_top * rho ** 2 / 6.0 <= 0.0:
            warnings.warn(
                f"jet volume element non-positive inside the bubble support "
                f"(|y'| <= {rho:.3g}, depth <= {t_deep:.3g}); shrink eps or the cutoff",
                stacklevel=3)

    def escobar_quotient(self, eps: float) -> QuotientResult:
        n = self.n
        q = 2.0 * (n - 1) / (n - 2)
        self._check_jet_positivity(eps)
        terms = self.escobar_numerator_terms(eps)
        N = sum(terms.values())
        Tq = self.traceq(eps)
        flat = self.flat_escobar()
        # cancellation-free deficit: J - J_flat = (dN - N0 ((Tq/T0)^(2/q)-1)) / Tq^(2/q)
        T0 = self.M.trq[0, 0]
        dN = (self._delta("tan", eps) + self._delta("nor", eps)
              + terms["scal"] + terms["H_boundary"])
        dT_rel = self._delta("trq", eps) / T0
        deficit = (dN - self._J0 * math.expm1((2.0 / q) * math.log1p(dT_rel))) / Tq ** (2.0 / q)
        quot = flat + deficit
        return QuotientResult("escobar", eps, self.R, N, Tq ** (2.0 / q), quot,
                              flat, deficit, dict(terms, trace_mass=Tq),
                              self.M.err)

    def flat_escobar(self) -> float:
        return self._flat_escobar

    @cached_property
    def _flat_escobar(self) -> float:
        q = 2.0 * (self.n - 1) / (self.n - 2)
        return self._J0 / self.M.trq[0, 0] ** (2.0 / q)

    def escobar_series(self, order: int = 4) -> np.ndarray:
        """Taylor coefficients c_1..c_order of J(eps)/J(0) - 1 (exact jet model)."""
        n = self.n
        q = 2.0 * (n - 1) / (n - 2)
        K = order + 1
        N = self._series("tan", order) + self._series("nor", order)
        w2 = self._series("w2", order)
        N += (n - 2) / (4.0 * (n - 1)) * self._scal * np.concatenate([[0.0, 0.0], w2[:-2]])
        t2 = self._series("tr2", order)
        N += (n - 2) / 2.0 * self._H * np.concatenate([[0.0], t2[:-1]])
        Tq = self._series("trq", order)
        rel = _ser_mul(N / N[0], _ser_pow(Tq / Tq[0], -2.0 / q))
        return rel[1:K]

    # -- plain trace ----------------------------------------------------------
    def _gauge_shift(self, eps: float) -> float:
        """Chart-volume average of the bubble (mean-zero gauge constant)."""
        return eps ** ((self.n + 2) / 2.0) * self._eval("w1", eps) / self._chart_volume

    @cached_property
    def _chart_volume(self) -> float:
        """Jet volume of the chart |y'| <= r0, 0 <= t <= r0 (the P_sca monomials)."""
        n = self.n
        r0 = self.jet.chart_radius
        vol = 0.0
        for (i, j), c in self.P_sca.items():
            a, b = n - 2 + i, j
            vol += (c * sphere_area(n - 2) * r0 ** (a + b + 2) / (a + b + 2)
                    * 0.5 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
                    / math.gamma((a + b + 2) / 2))
        return vol

    def plain_trace_quotient(self, eps: float) -> QuotientResult:
        n = self.n
        q = 2.0 * (n - 1) / (n - 2)
        alpha = q / 2.0
        D = self.dirichlet(eps)
        Tq = self.traceq(eps)
        cbar = self._gauge_shift(eps)
        # first-order effect of subtracting the constant cbar from the bubble:
        # u = eps^(-(n-2)/2) w(./eps), so q * cbar * int u^(q-1) dsigma pulls
        # back to q * cbar * eps^((n-2)/2) * int w^(q-1) dsigma'
        gauge = -q * cbar * eps ** ((n - 2) / 2.0) * self._eval("trq1", eps)
        Tq_gauged = Tq + gauge
        flat = self.flat_plain_trace()
        # cancellation-free: T_M - flat = (dT - T0 ((D/D0)^alpha - 1)) / D^alpha
        T0 = self.M.trq[0, 0]
        dT = self._delta("trq", eps) + gauge
        dD_rel = (self._delta("tan", eps) + self._delta("nor", eps)) / self._J0
        deficit = (dT - T0 * math.expm1(alpha * math.log1p(dD_rel))) / D ** alpha
        quot = flat + deficit
        return QuotientResult("plain-trace", eps, self.R, Tq_gauged, D ** alpha,
                              quot, flat, deficit,
                              {"dirichlet": D, "trace_mass": Tq, "gauge_shift": cbar,
                               "gauge_correction": gauge}, self.M.err)

    def flat_plain_trace(self) -> float:
        return self._flat_plain_trace

    @cached_property
    def _flat_plain_trace(self) -> float:
        alpha = (self.n - 1.0) / (self.n - 2.0)
        return self.M.trq[0, 0] / self._J0 ** alpha

    def plain_trace_series(self, order: int = 3) -> np.ndarray:
        """Relative Taylor coefficients of T_M(eps)/T_M(0) - 1 (gauge term omitted:
        it is O(eps^((n+2)/2) * eps^((n-2)/2)), below every fitted order)."""
        n = self.n
        alpha = (n - 1.0) / (n - 2.0)
        D = self._series("tan", order) + self._series("nor", order)
        Tq = self._series("trq", order)
        rel = _ser_mul(Tq / Tq[0], _ser_pow(D / D[0], -alpha))
        return rel[1:order + 1]

    # -- GN -------------------------------------------------------------------
    def gn_quotient(self, eps: float) -> QuotientResult:
        if self.p_exponent is None:
            raise ValueError("model built without the L^(p+1) weight")
        al, be = gn_exponents(self.n, self.p_exponent)
        Ipp = self.bulk_pp(eps)
        I2 = self.bulk_mass2(eps)
        D = self.dirichlet(eps)
        flat = self.flat_gn()
        # cancellation-free relative change of the quotient
        dpp = self._delta("pp", eps) / self.M.pp[0, 0]
        d2 = self._delta("w2", eps) / self.M.w2[0, 0]
        dg = (self._delta("tan", eps) + self._delta("nor", eps)) / self._J0
        if min(dpp, d2, dg) <= -1.0:
            # each integrand is non-negative, so a non-positive integral means
            # the jet's volume element is non-positive on the bubble support
            raise ValueError(
                f"jet volume element non-positive on the bubble support at eps={eps:.6g} "
                f"(I_pp, I_2 and the Dirichlet energy change by {dpp:.3g}, {d2:.3g}, "
                f"{dg:.3g} relative); shrink eps or the cutoff")
        rel = math.expm1(math.log1p(dpp) - 0.5 * al * math.log1p(d2)
                         - 0.5 * be * math.log1p(dg))
        W = flat * (1.0 + rel)
        return QuotientResult(self.gn_functional, eps, self.R, Ipp,
                              I2 ** (al / 2.0) * D ** (be / 2.0), W, flat,
                              -rel,
                              {"I_pp": Ipp, "I_2": I2, "dirichlet": D,
                               "rel_change": rel}, self.M.err)

    def flat_gn(self) -> float:
        return self._flat_gn

    @cached_property
    def _flat_gn(self) -> float:
        al, be = gn_exponents(self.n, self.p_exponent)
        return self.M.pp[0, 0] / (self.M.w2[0, 0] ** (al / 2.0) * self._J0 ** (be / 2.0))

    def gn_series(self, order: int = 3) -> np.ndarray:
        """Relative Taylor coefficients of W(eps)/W(0) - 1."""
        al, be = gn_exponents(self.n, self.p_exponent)
        Ipp = self._series("pp", order)
        I2 = self._series("w2", order)
        D = self._series("tan", order) + self._series("nor", order)
        rel = _ser_mul(Ipp / Ipp[0],
                       _ser_mul(_ser_pow(I2 / I2[0], -al / 2.0),
                                _ser_pow(D / D[0], -be / 2.0)))
        return rel[1:order + 1]


class InteriorEnergyModel(HalfspaceEnergyModel):
    """GN quotient of an interior bubble over the normal-coordinate jet.

    The 1-D case of the half-space model: the moment matrix of a radial
    profile has nor = 0 and only t-power 0, and the boundary density is
    empty, so the GN formulas and the set-up are shared.
    """
    gn_functional = "gn-interior"

    def __init__(self, data: InteriorPointData, profile: RadialProfile, R: float,
                 spec: QuadratureSpec = DEFAULT_QUAD):
        if profile.p is None:
            raise ValueError("interior GN model needs a GN ground-state profile")
        self.data = data
        self._setup(_interior_jet_polys(data), profile, R, spec, profile.p)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def _check_chart(jet, bubble: BubbleParams) -> None:
    if bubble.eps * 2.0 * bubble.R > getattr(jet, "chart_radius", bubble.chart_radius) + 1e-12:
        raise ChartOverflowError(
            f"eps*2R = {bubble.eps * 2 * bubble.R} exceeds chart radius")


def escobar_quotient(jet: FermiJetMetric, bubble: BubbleParams,
                     spec: QuadratureSpec = DEFAULT_QUAD) -> QuotientResult:
    _check_chart(jet, bubble)
    model = HalfspaceEnergyModel(jet, bubble.profile, bubble.R, spec)
    return model.escobar_quotient(bubble.eps)


def plain_trace_quotient(jet: FermiJetMetric, bubble: BubbleParams,
                         spec: QuadratureSpec = DEFAULT_QUAD) -> QuotientResult:
    _check_chart(jet, bubble)
    model = HalfspaceEnergyModel(jet, bubble.profile, bubble.R, spec)
    return model.plain_trace_quotient(bubble.eps)


def gn_quotient(metric, bubble: BubbleParams,
                spec: QuadratureSpec = DEFAULT_QUAD) -> QuotientResult:
    _check_chart(metric, bubble)
    if isinstance(metric, InteriorPointData):
        return InteriorEnergyModel(metric, bubble.profile, bubble.R, spec).gn_quotient(bubble.eps)
    model = HalfspaceEnergyModel(metric, bubble.profile, bubble.R, spec,
                                 p_exponent=bubble.profile.p)
    return model.gn_quotient(bubble.eps)


@dataclass
class DeficitSweep:
    """Deficits over an eps-grid, from quadrature or synthetic injection."""
    functional: str
    eps: np.ndarray
    deficits: np.ndarray          # E(eps): quotient - flat (escobar/plain), relative for GN
    reference: float
    results: list = field(default_factory=list)
    series: Optional[np.ndarray] = None   # exact jet-model Taylor coefficients
    source: str = "geometry"

    def deficit_at(self, eps: float) -> float:
        i = int(np.argmin(np.abs(self.eps - eps)))
        if abs(self.eps[i] - eps) > 1e-12 * max(eps, 1e-300):
            raise KeyError(f"eps {eps} not in sweep grid")
        return float(self.deficits[i])


def deficit_series(jet, profile: RadialProfile, R: float, eps_grid,
                   spec: QuadratureSpec = DEFAULT_QUAD, functional: str = "escobar",
                   synthetic: Optional[dict] = None,
                   diagonal: bool = False) -> DeficitSweep:
    """E(eps) over a grid; ``synthetic={'coeffs': [...], 'S': S}`` bypasses
    quadrature and returns E = S * sum_k c_k eps^k exactly (estimator unit mode).

    ``diagonal=True`` switches from the fixed-cutoff regime to the diagonal
    one: each level gets its own cutoff R(eps) = R * sqrt(eps_max/eps), so
    eps R(eps) -> 0 while R(eps) -> infinity and each deficit is measured
    against the flat value at its own truncation.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if synthetic is not None:
        S = synthetic.get("S", 1.0)
        coeffs = np.asarray(synthetic["coeffs"], dtype=float)
        vals = S * sum(c * eps_grid ** (k + 1) for k, c in enumerate(coeffs))
        return DeficitSweep(functional, eps_grid, vals, S,
                            series=coeffs, source="synthetic")
    if diagonal:
        if functional != "escobar":
            raise ValueError("diagonal cutoff regime implemented for the "
                             "boundary-trace quotient")
        res = []
        for e in eps_grid:
            Re = R * math.sqrt(float(eps_grid.max()) / e)
            model = HalfspaceEnergyModel(jet, profile, Re, spec)
            res.append(model.escobar_quotient(e))
        vals = np.array([r.deficit for r in res])
        return DeficitSweep(functional, eps_grid, vals, res[-1].reference,
                            results=res, source="geometry-diagonal")
    if functional == "escobar":
        model = HalfspaceEnergyModel(jet, profile, R, spec)
        evaluate, ref, ser = model.escobar_quotient, model.flat_escobar(), model.escobar_series()
    elif functional == "plain-trace":
        model = HalfspaceEnergyModel(jet, profile, R, spec)
        evaluate, ref, ser = model.plain_trace_quotient, model.flat_plain_trace(), model.plain_trace_series()
    elif functional == "gn-boundary":
        model = HalfspaceEnergyModel(jet, profile, R, spec, p_exponent=profile.p)
        evaluate, ref, ser = model.gn_quotient, model.flat_gn(), model.gn_series()
    elif functional == "gn-interior":
        model = InteriorEnergyModel(jet, profile, R, spec)
        evaluate, ref, ser = model.gn_quotient, model.flat_gn(), model.gn_series()
    else:
        raise KeyError(functional)
    res = [evaluate(e) for e in eps_grid]
    vals = np.array([r.deficit for r in res])
    return DeficitSweep(functional, eps_grid, vals, ref, results=res, series=ser)


# --------------------------------------------------------------------------
# fitting helpers
# --------------------------------------------------------------------------

def fit_power_series(eps, values, degrees) -> np.ndarray:
    """Least-squares fit of values ~ sum_d c_d eps^d (scaled for conditioning)."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    s = eps.max()
    A = np.stack([(eps / s) ** d for d in degrees], axis=1)
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    return coef / s ** np.asarray(degrees, dtype=float)


def empirical_slope(eps, errors, levels: int = 3) -> float:
    """Log-log slope of |errors| vs eps over the ``levels`` finest levels."""
    eps = np.asarray(eps, dtype=float)
    err = np.abs(np.asarray(errors, dtype=float))
    order = np.argsort(eps)
    eps, err = eps[order][:levels], err[order][:levels]
    good = err > 0
    if good.sum() < 2:
        return float("nan")
    A = np.stack([np.log(eps[good]), np.ones(good.sum())], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(err[good]), rcond=None)
    return float(coef[0])


# --------------------------------------------------------------------------
# channel fit
# --------------------------------------------------------------------------

@dataclass
class ChannelFitResult:
    n: int
    kappa1: float
    kappa2: float
    kappa3_fit: float
    kappa3_moment: float
    kappa3_rel_err: float
    kappa2_positive: bool
    noise_floor: float
    fit_errors: dict
    details: dict


def channel_fit_second_order(n: int, profile: RadialProfile, constants: EscobarConstants,
                             R: float = 100.0, eps0: float = 4e-3, levels: int = 6,
                             spec: QuadratureSpec = DEFAULT_QUAD,
                             residual_tol: float = 1e-8,
                             kappa3_tol: float = 0.05) -> ChannelFitResult:
    """Fit kappa_1, kappa_2 and cross-check kappa_3 from channel-isolating jets.

    Each geometry has H = 0, so deficit/S*(R) = c2 eps^2 + c3 eps^3 + c4 eps^4
    with no linear term (c3 comes out at noise level: the probe deficits are
    even in eps); c2 is fitted over a dyadic grid and divided by the channel
    value. The anisotropic fit is compared against the moment formula
    (4-n) g2 / (2(n-1)).
    """
    if n < 5:
        raise ValueError("channel fit requires n >= 5")
    eps = eps0 * 0.5 ** np.arange(levels)
    geos = {
        "ricci": geometry_catalog("ricci-only", n, value=1.0),
        "scal": geometry_catalog("boundary-scal-only", n, value=1.0),
        "aniso": geometry_catalog("anisotropic-cylinder-like", n),
        "flat": geometry_catalog("flat-halfspace", n),
    }
    fitted, fit_errors, details = {}, {}, {}
    for key, geo in geos.items():
        jet = fermi_jet(geo.data, order=2, chart_radius=max(1.0, eps0 * 2.1 * R))
        sweep = deficit_series(jet, profile, R, eps, spec, functional="escobar")
        y = sweep.deficits / sweep.reference
        c = fit_power_series(eps, y, (2, 3, 4))
        resid = y - c[0] * eps ** 2 - c[1] * eps ** 3 - c[2] * eps ** 4
        fitted[key] = c[0]
        fit_errors[key] = float(np.max(np.abs(resid)))
        details[key] = {"c2": float(c[0]), "c3": float(c[1]), "c4": float(c[2]),
                        "series": sweep.series.tolist(),
                        "deficits": y.tolist()}
    noise = abs(fitted["flat"]) + fit_errors["flat"] / eps.min() ** 2
    if max(fit_errors.values()) > residual_tol:
        raise RuntimeError(f"channel fit residual exceeds threshold: {fit_errors}")
    k1 = fitted["ricci"] / 1.0
    k2 = fitted["scal"] / 1.0
    aniso_val = geos["aniso"].data.II_ring_sq
    k3_fit = fitted["aniso"] / aniso_val
    k3_mom = constants.kappa3
    rel = abs(k3_fit - k3_mom) / abs(k3_mom)
    if rel > kappa3_tol:
        raise RuntimeError(
            f"kappa3 mismatch: fit {k3_fit} vs moments {k3_mom} ({rel:.2%})")
    return ChannelFitResult(n=n, kappa1=k1, kappa2=k2, kappa3_fit=k3_fit,
                            kappa3_moment=k3_mom, kappa3_rel_err=rel,
                            kappa2_positive=bool(k2 > 0), noise_floor=noise,
                            fit_errors=fit_errors, details=details)
