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

One engine, ``halfspace_moment_matrix``, computes every moment in the
package: the matrices of the models below, and the moment tables and every
GN norm of ``moments``. R = inf is the one way to ask for untruncated ones.

The matrix is a function of the profile, the cutoff and the quadrature
spec alone: the profile's GN exponent p decides whether the L^(p+1) weight is
integrated, and its depth offset ``shift`` extends the t-axis. It does not
depend on the jet, so the engine memoizes it in a process-wide LRU of
``_MEMO_CAP`` entries keyed by (profile fingerprint, R, spec). The
fingerprint covers every field that profile evaluation reads (p and shift
among the scalars, plus the content of the tabulated arrays, not ``meta``), so
an equal profile hits whatever its ``meta`` holds: a copy with equal arrays,
or a closed form rebuilt with the same amplitude. A build that raises is not
stored. Cached arrays are read-only because every model with the same key
shares them. The GN profiles of ``fixtures.cached_gn_profiles`` use the same
memo.

A jet of either kind, a Fermi jet or an interior point, is reduced by one
function, ``_reduce_jet``: it sphere-averages the term lists of the jet's
``terms()``, the lists its ``evaluate`` reads pointwise. The reductions share
that LRU too, keyed by ``_jet_fingerprint``: the content of every field a
reduction reads, never ``chart_radius``, ``label`` or the object's ``id``,
so equal jets share one read-only reduction. Array
content enters a key as its shape and float64 bytes: exact, with no digest
that could collide. A model contracts each (polynomial, matrix) pair into
one coefficient array in eps when it is built, and keeps the jet scalars it
reads: it is a snapshot of its jet at construction, and changing the point
data in place reaches only models built afterwards.

The quotient methods take an eps array (or one eps) and return results
whose fields are arrays of that shape: a sweep is one call on its whole
eps array. Values read the whole coefficient array, deficits the array
without its constant term (cancellation-free), both by Horner's rule, so an
eps gets the same bits in any array; the exact Taylor series read its
leading slice. The GN relative change alone sums its terms one eps at a
time (``HalfspaceEnergyModel._gn_rel_change`` says why).

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

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .geometry import FermiJetMetric, InteriorPointData, geometry_catalog, fermi_jet
from .profiles import RadialProfile, beta_function, cutoff, gn_exponents, sphere_area
from .quadrature import QuadratureSpec, DEFAULT_QUAD, grid_1d

if TYPE_CHECKING:
    from .moments import EscobarConstants

__all__ = [
    "QuotientResult", "DeficitSweep", "ChartOverflowError",
    "QuadratureNonConvergence", "deficit_series", "channel_fit_second_order",
    "ChannelFitResult", "HalfspaceEnergyModel", "InteriorEnergyModel",
    "fit_power_series", "empirical_slope", "halfspace_moment_matrix", "sphere_average",
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

# entries: a few kB of 5x5 arrays or polynomials, ~0.5 MB for a GN pair; a
# key holds the bytes of its arrays, about 64 kB for a GN profile
_MEMO_CAP = 64
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


def _content(*arrays) -> tuple:
    """The shape and float64 bytes of each of ``arrays`` (None allowed)."""
    return tuple(None if a is None else (np.shape(a), np.asarray(a, dtype=float).tobytes())
                 for a in arrays)


def _profile_fingerprint(profile: RadialProfile) -> tuple:
    """Hashable identity of everything ``value``/``grad`` read (not ``meta``)."""
    return (profile.kind, profile.n, profile.amplitude, profile.lam,
            tuple(profile.xi), profile.p, profile.tail_coeff, profile.tail_r0,
            profile.shift, _content(profile.grid, profile.values, profile.derivs,
                                   profile.derivs2))


def _jet_fingerprint(jet) -> tuple:
    """Hashable identity of everything a jet reduction reads.

    A Fermi jet: its order, n, ric_nn and the II, gradT_II, gradT_H,
    riemann_bdy and r_anbn arrays; an interior point: n, scal and ric. Not
    ``label`` or ``chart_radius``. The point data is mutable, so the key is
    built from its content at the time of the call, never from its ``id``.
    """
    if isinstance(jet, InteriorPointData):
        return ("interior", jet.n, jet.scal, _content(jet.ric))
    d = jet.data
    return ("fermi", jet.order, d.n, d.ric_nn,
            _content(d.II, d.gradT_II, d.gradT_H, d.riemann_bdy, d.r_anbn))


# --------------------------------------------------------------------------
# reduced jet polynomials
# --------------------------------------------------------------------------

# (matrix field, jet polynomial) pairs the quotients contract: the
# tangential weight with tan, the scalar weight with nor and the bulk norms,
# the boundary density with the traces
_PAIRS = (("tan", "P_tan"), ("nor", "P_sca"), ("w2", "P_sca"), ("w1", "P_sca"),
          ("pp", "P_sca"), ("tr2", "P_bdy"), ("trq", "P_bdy"), ("trq1", "P_bdy"))
# the fields a model holds a coefficient array for: the products, then tan + nor
_FIELDS = tuple(name for name, _ in _PAIRS) + ("dirichlet",)
# eps-degrees i + j of a 5x5 moment matrix
_DEGREES = 9


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


def _jet_polys(jet) -> _JetReduction:
    """``_reduce_jet`` of a Fermi jet or an interior point, memoized by
    ``_jet_fingerprint``."""
    return _memoized(("jet", _jet_fingerprint(jet)), lambda: _reduce_jet(jet.terms()))


def _reduce_jet(terms: dict) -> _JetReduction:
    """Angular-averaged jet polynomials in (X, Y) = (eps r, eps t).

    P_sca holds the coefficients of the scalar weight <sqrt|g|> (which also
    multiplies d_n w by g^nn = 1), P_tan those of the tangential-gradient
    weight <(w^T g^ab w) sqrt|g|>: a g^ab term's outer product with a sqrt|g|
    term has one omega slot per y'-power and the two of the gradient. A
    boundary jet adds P_bdy, of the boundary density, and the scalars
    ``_check_jet_positivity`` reads.
    """
    s_terms, g_terms = terms["sqrt_g"], terms["g_upper"]
    m = len(g_terms[0][2])            # the identity term: one slot per direction
    P_sca: dict = {}
    for px, py, T in s_terms:
        _poly_add(P_sca, (px, py), sphere_average(T, m))
    P_tan: dict = {}
    for gx, gy, TG in g_terms:
        for sx, sy, TS in s_terms:
            _poly_add(P_tan, (gx + sx, gy + sy), sphere_average(np.multiply.outer(TG, TS), m))
    if "bdy" not in terms:
        return _JetReduction(MappingProxyType(P_tan), MappingProxyType(P_sca))
    s = {(px, py): T for px, py, T in s_terms}
    # the boundary density averages to 1 - tr(Ricbar)/(6m), read off Ricbar
    # itself: the average of its -Ricbar/6 term rounds differently
    ric = terms["ric_bar"]
    P_bdy = {(0, 0): 1.0}
    _poly_add(P_bdy, (2, 0), -float(np.trace(ric)) / (6.0 * m))
    return _JetReduction(
        MappingProxyType(P_tan), MappingProxyType(P_sca), MappingProxyType(P_bdy),
        H=-float(s[0, 1]), kappa_vol=float(s.get((0, 2), 0.0)),
        grad_h_norm=float(np.sqrt(np.sum(s.get((1, 1), 0.0) ** 2))),
        ric_top=max(float(np.linalg.eigvalsh(ric)[-1]), 0.0))


# --------------------------------------------------------------------------
# moment matrices: one quadrature pass per (profile, cutoff)
# --------------------------------------------------------------------------

_HALFSPACE_KINDS = ("escobar-halfspace", "gn-halfspace-near-optimizer")
_POWERS = np.arange(5)[:, None]   # monomial exponents 0..4 on each axis
# largest relative two-resolution difference a moment matrix may show
_MATRIX_TOL = 1e-6
# grid points per column block of a build: a field is 64 kB, so a block's
# fields fit in L2 and a build's temporaries stay near 1.5 MB. Blocks of
# 32768 points built no faster, but their 5 MB of freed temporaries were
# left pinned in the heap after a process's first builds in one run of four,
# so its resident memory differed by 3-4 MB between identical runs.
_BLOCK = 8192


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
                            spec: QuadratureSpec = DEFAULT_QUAD) -> _HalfspaceMatrix:
    """Every truncated moment of chi_R * profile, from two resolutions.

    Half-space kinds integrate over [0, 2R] x [0, 2R + profile.shift] with
    measure |S^(n-2)| r^(n-2); radial kinds over [0, 2R] with
    |S^(n-1)| r^(n-1). The |w|^(p+1) moments ``pp`` are built exactly when
    the profile carries a GN exponent p. Each resolution walks the (r, t)
    grid in blocks of whole t columns, about ``_BLOCK`` points each, so no
    full-grid array is formed and a block's fields stay in cache. Every grid
    point is evaluated once: the profile yields (u, u_r, u_t) from one call
    on the block's broadcast axes, the cutoff yields chi_R and, on the band
    R < rho < 2R only, chi_R'. Each block's fields are summed over r with the
    weighted Vandermonde rows of r, then the t sums run once on all columns.
    A column is summed over r in the order the full grid would use, so the
    moments do not depend on the block width to the last bit. Raises
    QuadratureNonConvergence when the resolutions differ by more than
    ``_MATRIX_TOL`` relative. Memoized by (profile fingerprint, R, spec).
    R = inf gives the untruncated moments: the half-space optimizer's in
    closed form, the GN ground state's at R = tail_r0 + ``_GN_TAIL_MARGIN``;
    other kinds raise ValueError.
    """
    if R == math.inf:
        if profile.kind == "gn-ground-state":
            R = profile.tail_r0 + _GN_TAIL_MARGIN
        elif profile.kind != "escobar-halfspace":
            raise ValueError(f"no untruncated moment matrix for kind {profile.kind}")
    key = ("matrix", _profile_fingerprint(profile), float(R), spec)
    return _memoized(key, lambda: _build_moment_matrix(profile, R, spec))


# Beyond tail_r0 = L (14 unless p is near 1) the GN ground state decays like e^(-r):
# at R = L + 6, Q(R) <= 2.1e-9 Q(0) for 1.1 <= p <= 5 at n = 2, 3, and the matrix
# holds the untruncated moments to rounding (4.4e-16 relative of a cutoff 20 further).
_GN_TAIL_MARGIN = 6.0


def _untruncated_escobar(profile: RadialProfile) -> _HalfspaceMatrix:
    """The matrix of U = c (r^2 + (1+t)^2)^(-(n-2)/2) at R = inf (err, delta 0)
    from qp = int_0^inf int_0^inf r^(m-1) t^b (r^2 + (1+t)^2)^(-s) dr dt =
    (1/2) B(m/2, s - m/2) B(b+1, 2s - m - b - 1) (DLMF 5.12), +inf if divergent,
    or for b None the trace (1/2) B(m/2, s - m/2) of r^(m-1) (1 + r^2)^(-s).
    Entry [i, j] has m = n - 1 + i and b = j; U^k has s = k(n-2)/2, and U_r^2
    and U_t^2 (its (1+t)^2 expanded) have s = n and the factor c^2 (n-2)^2."""
    def qp(m, s, b=None):
        args = [(m / 2.0, s - m / 2.0)] + ([] if b is None else [(b + 1.0, 2.0 * s - m - b - 1.0)])
        if min(map(min, args)) <= 0.0:
            return math.inf
        return 0.5 * math.prod(beta_function(*a) for a in args)

    n, c = profile.n, profile.amplitude
    q, g = 2.0 * (n - 1) / (n - 2), c * c * (n - 2) ** 2
    entry = {"tan": lambda m, b: g * qp(m + 2, n, b),
             "nor": lambda m, b: g * (qp(m, n, b) + 2.0 * qp(m, n, b + 1) + qp(m, n, b + 2)),
             "w2": lambda m, b: c * c * qp(m, n - 2, b),
             "w1": lambda m, b: c * qp(m, (n - 2) / 2.0, b),
             "tr2": lambda m, _: c * c * qp(m, n - 2),
             "trq": lambda m, _: c ** q * qp(m, n - 1),
             "trq1": lambda m, _: c ** (q - 1.0) * qp(m, n / 2.0)}
    om = sphere_area(n - 2)
    out = {name: _read_only(np.array([[om * f(n - 1 + i, j) for j in range(
        1 if name.startswith("tr") else 5)] for i in range(5)])) for name, f in entry.items()}
    delta = MappingProxyType({k: _read_only(np.zeros_like(v)) for k, v in out.items()})
    return _HalfspaceMatrix(n=n, R=math.inf, err=0.0, delta=delta, pp=None, **out)


def _build_moment_matrix(profile: RadialProfile, R: float,
                         spec: QuadratureSpec) -> _HalfspaceMatrix:
    if R == math.inf:
        return _untruncated_escobar(profile)
    n, p, t_offset = profile.n, profile.p, profile.shift
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
        # two einsum steps: no (grid x grid x monomial) temporary, and no
        # multithreaded BLAS call, which is far slower on these small shapes
        Vr = r ** _POWERS * (wr * om * r ** (dim - 1))
        Vt = t ** _POWERS * wt
        names = ("tan", "nor", "w2", "w1") + (() if p is None else ("pp",))
        rsum = {name: np.empty((5, t.size)) for name in names}
        rg = r[:, None]
        # one block of whole t columns at a time, so a block's fields stay in
        # cache: each column is summed over r in the order the full grid
        # uses, which keeps every bit. A block holds two columns or more
        # unless the grid has one: einsum sums a lone contiguous column with
        # its reduction kernel, in another order.
        width = max(2, _BLOCK // r.size)
        starts = range(0, max(t.size - 1, 1), width)
        for j0, j1 in zip(starts, [*starts[1:], t.size]):
            tb = t[j0:j1]
            tg = tb[None, :]
            u, ur, ut = profile._fields(rg, tg)
            rho = np.sqrt(rg ** 2 + tg ** 2)
            c, band, dc = chi._glue(rho)
            # chi' vanishes off the band R < rho < 2R, where its terms add
            # only a signed zero that squaring removes; rho > R on the band
            ib, jb = np.divmod(band, tb.size)
            udc = np.take(u, band) * dc
            rho_b = np.take(rho, band)
            tan = c * ur
            tan.reshape(-1)[band] += udc * (r[ib] / rho_b)
            if ut is None:
                nor = np.zeros_like(tan)
            else:
                nor = c * ut
                nor.reshape(-1)[band] += udc * (tb[jb] / rho_b)
            w = c * u
            fields = {"tan": np.square(tan, out=tan), "nor": np.square(nor, out=nor),
                      "w2": w ** 2, "w1": w}
            if p is not None:
                fields["pp"] = np.abs(w) ** (p + 1.0)
            for name, F in fields.items():
                rsum[name][:, j0:j1] = np.einsum("ia,ab->ib", Vr, F)
        out = {name: np.einsum("jb,ib->ij", Vt, S) for name, S in rsum.items()}
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
    if not err <= _MATRIX_TOL:   # a nan difference fails too
        raise QuadratureNonConvergence(
            f"moment matrix two-resolution difference {err:.2e} at R={R}")
    fine.setdefault("pp", None)
    return _HalfspaceMatrix(
        n=n, R=float(R), err=err,
        delta=MappingProxyType({k: _read_only(v) for k, v in delta.items()}),
        **{k: _read_only(v) for k, v in fine.items()})


# truncated Taylor-series helpers ------------------------------------------

def _ser_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a b) truncated at len(a), on Python floats: numpy scalars' bits, faster."""
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    K = len(a)
    out = [0.0] * K
    for i in range(K):
        for j in range(K - i):
            out[i + j] += a[i] * b[j]
    return np.array(out)


def _ser_pow(a: np.ndarray, alpha: float) -> np.ndarray:
    """(a0 + a1 x + ...)^alpha with a0 > 0, truncated at len(a).

    One O(K^2) recurrence (Knuth, TAOCP vol. 2, 4.7): b_0 = a0^alpha and
    b_k = (1/(k a0)) sum_{j=1..k} ((alpha+1) j - k) a_j b_(k-j).
    """
    a = [float(x) for x in a]
    a0 = a[0]
    b = [a0 ** alpha]
    for k in range(1, len(a)):
        b.append(sum(((alpha + 1.0) * j - k) * a[j] * b[k - j]
                     for j in range(1, k + 1)) / (k * a0))
    return np.array(b)


# --------------------------------------------------------------------------
# energy models
# --------------------------------------------------------------------------

@dataclass
class QuotientResult:
    """One quotient at every eps of an eps array.

    eps and the value fields (numerator to deficit, and the breakdown) have
    the shape of the eps argument: numpy scalars for one eps. R, reference
    and err_estimate belong to the model, so a model's result holds one of
    each; the diagonal regime of ``deficit_series`` builds one model per
    eps, and its result holds them as arrays over eps.
    """
    functional: str
    eps: np.ndarray
    R: float | np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    quotient: np.ndarray
    reference: float | np.ndarray
    deficit: np.ndarray
    breakdown: dict = field(default_factory=dict)
    err_estimate: float | np.ndarray = 0.0


class HalfspaceEnergyModel:
    """All boundary-bubble quotients of one (jet, profile, cutoff) triple.

    Evaluation at any eps and the exact eps-Taylor series share the same
    moment matrix, so sweep values and series truths are mutually consistent
    to quadrature precision. A model is a snapshot of its jet at
    construction: changing the point data afterwards does not reach it.
    """
    gn_functional = "gn-boundary"

    def __init__(self, jet: FermiJetMetric, profile: RadialProfile, R: float,
                 spec: QuadratureSpec = DEFAULT_QUAD):
        self.jet = jet
        self._setup(_jet_polys(jet), profile, R, spec)
        # Scal_g reads scal_bdy and its override, which the reduction does not
        self._scal = jet.scal

    def _setup(self, red: _JetReduction, profile: RadialProfile, R: float,
               spec: QuadratureSpec) -> None:
        """Set-up of both models: jet reduction, moment matrix, coefficient arrays.

        Each ``_PAIRS`` product becomes one read-only array of ``_DEGREES``
        coefficients in eps: entry d adds c * M[i, j] over the monomials
        with i + j = d in the polynomial's order, as the term-by-term series
        does. The Dirichlet energy's array is the sum of tan's and nor's.
        """
        self.profile = profile
        self.R = float(R)
        self.n = profile.n
        self.P_tan, self.P_sca, self.P_bdy = red.P_tan, red.P_sca, red.P_bdy
        self._H, self._kappa_vol = red.H, red.kappa_vol
        self._grad_h_norm, self._ric_top = red.grad_h_norm, red.ric_top
        self.M = halfspace_moment_matrix(profile, R, spec)
        bins, terms = [], []            # (row, degree) of each monomial, c * M[i, j]
        for row, (name, poly) in enumerate(_PAIRS):
            matrix = getattr(self.M, name)
            if matrix is not None:
                for (i, j), c in getattr(red, poly).items():
                    bins.append(row * _DEGREES + i + j)
                    terms.append(c * matrix[i, j])
        table = np.bincount(bins, terms, len(_FIELDS) * _DEGREES).reshape(len(_FIELDS), _DEGREES)
        table[-1] = table[0] + table[1]
        self._table = _read_only(table)
        self._coef = dict(zip(_FIELDS, table))
        self._top = int(np.flatnonzero(table.any(axis=0))[-1])    # highest degree in use
        self._J0 = self.M.tan[0, 0] + self.M.nor[0, 0]

    def _fields(self, eps):
        """eps as a float array, then each field's eps-dependent part (the
        polynomial without its constant term) and its value, at every eps.

        Horner's rule from the highest degree any field uses: only products
        and sums, so an eps gets the same bits whatever array it comes in.
        With one eps the fields are numpy scalars, whose ``**`` is libm's
        pow, not numpy's, so the quotients take their powers with np.power.
        """
        if self.R == math.inf:
            raise ChartOverflowError("an untruncated bubble (R = inf) overflows every chart")
        eps = np.asarray(eps, dtype=float)
        e = eps.reshape(1, -1)
        part = np.zeros((len(_FIELDS), e.size))
        for d in range(self._top, 0, -1):
            part = (part + self._table[:, d:d + 1]) * e        # (field, eps)
        shape = (-1,) + eps.shape
        return (eps, dict(zip(_FIELDS, part.reshape(shape))),
                dict(zip(_FIELDS, (part + self._table[:, :1]).reshape(shape))))

    def _series(self, name: str, order: int) -> np.ndarray:
        """A field's first order + 1 coefficients, zeros past its degree;
        ValueError if one diverges (R = inf, past the convergent degrees)."""
        coef = self._coef[name]
        coef = (coef[:max(order + 1, 0)] if order < _DEGREES
                else np.concatenate([coef, np.zeros(order + 1 - _DEGREES)]))
        if self.R == math.inf and not np.isfinite(coef).all():
            raise ValueError(f"the untruncated {name} series diverges by order {order}")
        return coef

    def integral(self, name: str, eps) -> np.ndarray:
        """A raw integral at every eps: ``dirichlet``, or a moment-matrix field
        (``w2``, ``pp``, ``tr2``, ``trq``, ...) weighed by its jet polynomial."""
        return self._fields(eps)[2][name]

    # -- Escobar -------------------------------------------------------------
    def _check_jet_positivity(self, eps: np.ndarray) -> None:
        """Warn, once for each eps, when the jet's volume element may be
        non-positive on the support.

        On |y'| <= rho = 2R eps, 0 <= t <= t_deep, the jet's
        sqrt|g| = 1 - (H + gradH.y') t + kappa_vol t^2 - Ric_bar[y', y']/6 is
        at least 1 - (H + |gradH| rho) t + kappa_vol t^2 - lam+ rho^2/6, with
        lam+ the top eigenvalue of Ric_bar clipped at 0. That quadratic in t
        takes its minimum at an end of [0, t_deep] or at its vertex. The bound
        does not increase with eps (the support and the slope grow with it),
        so the eps are checked from the largest down to the first that passes.

        A warning, not an error: the bound covers a cylinder around the
        support and pairs the worst y' of two terms, so it can fire where the
        volume element is positive; and the quotient stays the jet model's
        polynomial in eps, which the series and the sweeps use as such.
        """
        for e in np.sort(eps, axis=None)[::-1].tolist():
            t_deep = e * (2.0 * self.R + self.profile.shift)
            rho = 2.0 * self.R * e
            b = self._H + self._grad_h_norm * rho
            a = self._kappa_vol
            vertex = min(max(b / (2.0 * a), 0.0), t_deep) if a > 0.0 else 0.0
            low = min(1.0 - b * t + a * (t * t) for t in (0.0, t_deep, vertex))
            if not low - self._ric_top * rho ** 2 / 6.0 <= 0.0:
                return
            warnings.warn(
                f"jet volume element non-positive inside the bubble support "
                f"(|y'| <= {rho:.3g}, depth <= {t_deep:.3g}); shrink eps or the cutoff",
                stacklevel=3)

    def escobar_quotient(self, eps) -> QuotientResult:
        n = self.n
        q = 2.0 * (n - 1) / (n - 2)
        eps, delta, value = self._fields(eps)
        self._check_jet_positivity(eps)
        terms = {
            "gradient": value["dirichlet"],
            "scal": (n - 2) / (4.0 * (n - 1)) * self._scal * eps ** 2 * value["w2"],
            "H_boundary": (n - 2) / 2.0 * eps * self._H * value["tr2"],
        }
        Tq = value["trq"]
        flat = self.flat_escobar()
        # cancellation-free deficit: J - J_flat = (dN - N0 ((Tq/T0)^(2/q)-1)) / Tq^(2/q)
        dN = delta["dirichlet"] + terms["scal"] + terms["H_boundary"]
        dT_rel = delta["trq"] / self.M.trq[0, 0]
        denominator = np.power(Tq, 2.0 / q)
        deficit = (dN - self._J0 * np.expm1((2.0 / q) * np.log1p(dT_rel))) / denominator
        return QuotientResult("escobar", eps[()], self.R, sum(terms.values()), denominator,
                              flat + deficit, flat, deficit, dict(terms, trace_mass=Tq),
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
        # the Scal_g and H terms carry eps^2 and eps
        w2 = np.concatenate([[0.0, 0.0], self._series("w2", order - 2)])[:K]
        N = self._series("dirichlet", order) + (n - 2) / (4.0 * (n - 1)) * self._scal * w2
        N += (n - 2) / 2.0 * self._H * np.concatenate([[0.0], self._series("tr2", order - 1)])
        Tq = self._series("trq", order)
        rel = _ser_mul(N / N[0], _ser_pow(Tq / Tq[0], -2.0 / q))
        return rel[1:K]

    # -- plain trace ----------------------------------------------------------
    @cached_property
    def _chart_volume(self) -> float:
        """Jet volume of the chart, the half-ball |y| <= r0, t >= 0 of
        y = (y', t): the P_sca monomials |y'|^i t^j integrate in polar
        coordinates to a radial power times a half-sphere Beta factor."""
        n = self.n
        r0 = self.jet.chart_radius
        vol = 0.0
        for (i, j), c in self.P_sca.items():
            a, b = n - 2 + i, j
            vol += (c * sphere_area(n - 2) * r0 ** (a + b + 2) / (a + b + 2)
                    * 0.5 * beta_function((a + 1) / 2, (b + 1) / 2))
        return vol

    def plain_trace_quotient(self, eps) -> QuotientResult:
        n = self.n
        q = 2.0 * (n - 1) / (n - 2)
        alpha = q / 2.0
        eps, delta, value = self._fields(eps)
        D, Tq = value["dirichlet"], value["trq"]
        # the chart-volume average of the bubble (mean-zero gauge constant)
        cbar = eps ** ((n + 2) / 2.0) * value["w1"] / self._chart_volume
        # first-order effect of subtracting the constant cbar from the bubble:
        # u = eps^(-(n-2)/2) w(./eps), so q * cbar * int u^(q-1) dsigma pulls
        # back to q * cbar * eps^((n-2)/2) * int w^(q-1) dsigma'
        gauge = -q * cbar * eps ** ((n - 2) / 2.0) * value["trq1"]
        flat = self.flat_plain_trace()
        # cancellation-free: T_M - flat = (dT - T0 ((D/D0)^alpha - 1)) / D^alpha
        dT = delta["trq"] + gauge
        dD_rel = delta["dirichlet"] / self._J0
        denominator = np.power(D, alpha)
        deficit = (dT - self.M.trq[0, 0] * np.expm1(alpha * np.log1p(dD_rel))) / denominator
        return QuotientResult("plain-trace", eps[()], self.R, Tq + gauge, denominator,
                              flat + deficit, flat, deficit,
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
        D = self._series("dirichlet", order)
        Tq = self._series("trq", order)
        rel = _ser_mul(Tq / Tq[0], _ser_pow(D / D[0], -alpha))
        return rel[1:order + 1]

    # -- GN -------------------------------------------------------------------
    def gn_quotient(self, eps) -> QuotientResult:
        if self.profile.p is None:
            raise ValueError("model built without the L^(p+1) weight")
        al, be = gn_exponents(self.n, self.profile.p)
        eps, _, value = self._fields(eps)
        Ipp, I2, D = value["pp"], value["w2"], value["dirichlet"]
        flat = self.flat_gn()
        rel = np.reshape([self._gn_rel_change(e, al, be) for e in eps.ravel().tolist()],
                         eps.shape)[()]
        return QuotientResult(self.gn_functional, eps[()], self.R, Ipp,
                              np.power(I2, al / 2.0) * np.power(D, be / 2.0),
                              flat * (1.0 + rel), flat,
                              -rel,
                              {"I_pp": Ipp, "I_2": I2, "dirichlet": D,
                               "rel_change": rel}, self.M.err)

    def _gn_rel_change(self, eps: float, al: float, be: float) -> float:
        """Cancellation-free relative change of the GN quotient at one eps.

        Its three logs cancel to about 1/50 of their size (the n = 3 ball),
        so a last-bit move in any of the changes comes out fifty-fold:
        adding them grouped by degree, as ``_fields`` does, moves the result
        by up to 9e-15 relative. Each change is therefore summed term by
        term in its polynomial's order, with libm's log1p and expm1, one eps
        at a time; GN sweeps evaluate a few eps per model.
        """
        def change(poly, name):
            matrix = getattr(self.M, name)
            return sum(c * matrix[key] * eps ** (key[0] + key[1])
                       for key, c in poly.items() if key[0] + key[1] > 0)

        dpp = change(self.P_sca, "pp") / self.M.pp[0, 0]
        d2 = change(self.P_sca, "w2") / self.M.w2[0, 0]
        dg = (change(self.P_tan, "tan") + change(self.P_sca, "nor")) / self._J0
        if min(dpp, d2, dg) <= -1.0:
            # each integrand is non-negative, so a non-positive integral means
            # the jet's volume element is non-positive on the bubble support
            raise ValueError(
                f"jet volume element non-positive on the bubble support at eps={eps:.6g} "
                f"(I_pp, I_2 and the Dirichlet energy change by {dpp:.3g}, {d2:.3g}, "
                f"{dg:.3g} relative); shrink eps or the cutoff")
        return math.expm1(math.log1p(dpp) - 0.5 * al * math.log1p(d2)
                          - 0.5 * be * math.log1p(dg))

    def flat_gn(self) -> float:
        return self._flat_gn

    @cached_property
    def _flat_gn(self) -> float:
        from .moments import weinstein_quotient   # moments imports this module
        return weinstein_quotient(self.M, self.profile.p)

    def gn_series(self, order: int = 3) -> np.ndarray:
        """Relative Taylor coefficients of W(eps)/W(0) - 1."""
        al, be = gn_exponents(self.n, self.profile.p)
        Ipp = self._series("pp", order)
        I2 = self._series("w2", order)
        D = self._series("dirichlet", order)
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
        self._setup(_jet_polys(data), profile, R, spec)


@dataclass
class DeficitSweep:
    """Deficits over an eps-grid, with the exact jet-model series.

    ``result`` holds the quotient at every eps of the grid; in the diagonal
    regime its R, reference and err_estimate are arrays over eps too.
    """
    functional: str
    eps: np.ndarray
    deficits: np.ndarray          # E(eps): quotient - flat (escobar/plain), relative for GN
    reference: float
    result: Optional[QuotientResult] = None
    series: Optional[np.ndarray] = None   # exact jet-model Taylor coefficients
    source: str = "geometry"

    def deficit_at(self, eps: float) -> float:
        i = int(np.argmin(np.abs(self.eps - eps)))
        if abs(self.eps[i] - eps) > 1e-12 * max(eps, 1e-300):
            raise KeyError(f"eps {eps} not in sweep grid")
        return float(self.deficits[i])


def deficit_series(jet, profile: RadialProfile, R: float, eps_grid,
                   functional: str = "escobar", diagonal: bool = False) -> DeficitSweep:
    """E(eps) over a grid, from one call of one model of ``functional`` at cutoff R.

    ``diagonal=True`` switches from the fixed-cutoff regime to the diagonal
    one: each level gets its own cutoff R(eps) = R * sqrt(eps_max/eps), so
    eps R(eps) -> 0 while R(eps) -> infinity and each deficit is measured
    against the flat value at its own truncation.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if diagonal:
        if functional != "escobar":
            raise ValueError("diagonal cutoff regime implemented for the "
                             "boundary-trace quotient")
        levels = [HalfspaceEnergyModel(jet, profile, R * math.sqrt(float(eps_grid.max()) / e))
                  .escobar_quotient(e) for e in eps_grid]
        res = QuotientResult(
            functional, breakdown={k: np.array([r.breakdown[k] for r in levels])
                                   for k in levels[0].breakdown},
            **{f.name: np.array([getattr(r, f.name) for r in levels])
               for f in fields(QuotientResult) if f.name not in ("functional", "breakdown")})
        return DeficitSweep(functional, eps_grid, res.deficit, levels[-1].reference,
                            result=res, source="geometry-diagonal")
    if functional == "escobar":
        model = HalfspaceEnergyModel(jet, profile, R)
        evaluate, ref, ser = model.escobar_quotient, model.flat_escobar(), model.escobar_series()
    elif functional == "plain-trace":
        model = HalfspaceEnergyModel(jet, profile, R)
        evaluate, ref, ser = model.plain_trace_quotient, model.flat_plain_trace(), model.plain_trace_series()
    elif functional == "gn-boundary":
        model = HalfspaceEnergyModel(jet, profile, R)
        evaluate, ref, ser = model.gn_quotient, model.flat_gn(), model.gn_series()
    elif functional == "gn-interior":
        model = InteriorEnergyModel(jet, profile, R)
        evaluate, ref, ser = model.gn_quotient, model.flat_gn(), model.gn_series()
    else:
        raise KeyError(functional)
    res = evaluate(eps_grid)
    return DeficitSweep(functional, eps_grid, res.deficit, ref, result=res, series=ser)


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
    # least-squares line in closed form: sum x~ y~ / sum x~^2 on centred logs
    x, y = np.log(eps[good]), np.log(err[good])
    x, y = x - x.mean(), y - y.mean()
    return float(np.dot(x, y) / np.dot(x, x))


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
    fit_errors: dict
    details: dict


# the guard's largest eps, its largest allowed series residual, and the
# relative gap allowed between the series and the moment kappa3
_GUARD_EPS = 4e-3
_FIT_RESIDUAL_TOL = 1e-8
_KAPPA3_TOL = 0.05


def channel_fit_second_order(n: int, profile: RadialProfile, constants: EscobarConstants,
                             R: float = 100.0,
                             spec: QuadratureSpec = DEFAULT_QUAD) -> ChannelFitResult:
    """kappa_1, kappa_2 and a kappa_3 cross-check from channel-isolating jets.

    Each probe geometry has H = 0, Scal_g off and one second-order channel,
    so its deficit over S*(R) is c2 eps^2 + O(eps^3); c2 is read from the
    exact jet series (``escobar_series()[1]``) of the probe's model at R and
    divided by the channel value. One quadrature level guards each series:
    the deficit at eps = min(4e-3, 0.25/R), inside the unit chart, must match
    sum_k c_k eps^k to ``_FIT_RESIDUAL_TOL`` (``fit_errors`` holds the
    residuals). R = inf gives the exact constants: the matrix is exact, so
    nothing is guarded (``fit_errors`` read 0), and the series stop at order
    min(4, n - 3), the highest whose moments converge. The anisotropic value
    is compared against the moment formula (4-n) g2 / (2(n-1)).
    """
    if n < 5:
        raise ValueError("channel fit requires n >= 5")
    exact = R == math.inf
    eps = min(_GUARD_EPS, 0.25 / R)
    geos = {"ricci": geometry_catalog("ricci-only", n, value=1.0),
            "scal": geometry_catalog("boundary-scal-only", n, value=1.0),
            "aniso": geometry_catalog("anisotropic-cylinder-like", n)}
    c2, fit_errors, details = {}, {}, {}
    for key, geo in geos.items():
        model = HalfspaceEnergyModel(fermi_jet(geo.data, order=2), profile, R, spec)
        series = model.escobar_series(min(4, n - 3) if exact else 4)
        c2[key] = float(series[1])
        fit_errors[key] = 0.0 if exact else float(abs(
            model.escobar_quotient(eps).deficit / model.flat_escobar()
            - sum(c * eps ** (k + 1) for k, c in enumerate(series))))
        details[key] = {"series": series.tolist()}
    if max(fit_errors.values()) > _FIT_RESIDUAL_TOL:
        raise RuntimeError(f"channel series residual exceeds threshold: {fit_errors}")
    k1, k2 = c2["ricci"], c2["scal"]          # both probes have channel value 1
    k3_fit, k3_mom = c2["aniso"] / geos["aniso"].data.II_ring_sq, constants.kappa3
    rel = abs(k3_fit - k3_mom) / abs(k3_mom)
    if rel > _KAPPA3_TOL:
        raise RuntimeError(
            f"kappa3 mismatch: series {k3_fit} vs moments {k3_mom} ({rel:.2%})")
    return ChannelFitResult(n=n, kappa1=k1, kappa2=k2, kappa3_fit=k3_fit,
                            kappa3_moment=k3_mom, kappa3_rel_err=rel,
                            kappa2_positive=bool(k2 > 0),
                            fit_errors=fit_errors, details=details)
