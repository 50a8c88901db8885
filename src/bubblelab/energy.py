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
integrated, and p and the depth offset ``shift`` decide the graded panels
(``_polar_grid``). It does not depend on the jet, so the engine memoizes it
in a process-wide LRU of ``_MEMO_CAP`` entries keyed by (profile
fingerprint, R, spec). The fingerprint covers every field that profile
evaluation reads (p and shift among the scalars, plus the content of the
tabulated arrays, not ``meta``), so an equal profile hits whatever its
``meta`` holds: a copy with equal arrays, or a closed form rebuilt with the
same amplitude. A build that raises is not stored. Cached arrays are
read-only because every model with the same key shares them. The GN profiles
of ``fixtures.cached_gn_profiles`` use the same memo, and so do the rho sums
of a half-space build: chi_R is 1 up to D = 2^floor(log2 R), so one entry
per (profile fingerprint, resolution) holds the sums at each D a build asked
for, and a later build sums only the nodes past its D onto them, to the same
bits (``_build_moment_matrix``).

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

Each functional is a table of factors in ``_FORMS``, read by one evaluator
at a whole eps array (a sweep is one call): values from the coefficient
arrays, each factor's change from its array without the constant term (so
deficits never cancel), both by Horner's rule, so an eps gets the same bits
in any array. ``flat`` reads the constant terms and ``series`` the leading
slices. GN alone sums each change term by term, one eps at a time
(``HalfspaceEnergyModel._term_sums`` says why).

Escobar numerator (covariant graph form, rescaled coordinates):

    N(eps) = int g^ij(eps y) d_i w d_j w sqrt|g(eps y)| dy
             + c_n_scal * Scal_g * eps^2 int w^2 sqrt|g| dy
             + ((n-2)/2) * eps * H * int_{y_n=0} w^2 dsigma(eps y')

with c_n_scal = (n-2)/(4(n-1)) and w = chi_R * U; ``_FORMS`` lists the
denominators of the three functionals.
"""
from __future__ import annotations

import math
import operator
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, reduce
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

# entries: a few kB of 5x5 arrays or polynomials, ~0.5 MB for a GN pair, and
# the rho sums of one resolution at each cached D (per D, 12 kB coarse and
# 23 kB fine for an Escobar profile, 43 and 86 kB for a GN near-optimizer);
# a key holds the bytes of its arrays, about 64 kB for a GN profile
_MEMO_CAP = 64
_memo: OrderedDict = OrderedDict()


def _memoized(key: tuple, build: Callable):
    """``build()`` through the process-wide LRU; exceptions are not stored."""
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    return _remember(key, build())


def _remember(key: tuple, value):
    """Store ``value`` as the newest LRU entry, evicting the oldest past the cap."""
    _memo[key] = value
    _memo.move_to_end(key)
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
_ROW = {name: row for row, name in enumerate(_FIELDS)}
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
_RHO_POWERS = np.arange(_DEGREES)[:, None]   # the powers i + j of rho they make
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


class _HalfspaceMatrix(NamedTuple):
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

    Half-space kinds integrate over the quarter disc rho <= 2R in polar
    coordinates, r = rho cos phi and t = rho sin phi, with measure
    |S^(n-2)| r^(n-2) dr dt = |S^(n-2)| rho^(n-1) cos^(n-2) phi drho dphi;
    chi_R vanishes for rho >= 2R, so no grid point lies beyond. Radial kinds
    integrate over [0, 2R] with |S^(n-1)| r^(n-1), the ray phi = 0. The
    panels are ``_polar_grid``'s; the finer resolution splits every panel of
    both variables in two. The |w|^(p+1) moments ``pp`` are built exactly
    when the profile carries a GN exponent p. chi_R and chi_R' are 1-D
    arrays over the rho nodes, and
    grad(chi_R u) = chi_R grad u + u chi_R' (cos phi, sin phi). Each
    resolution walks the grid in blocks of whole phi columns, about
    ``_BLOCK`` points each, so no full-grid array is formed and a block's
    fields stay in cache; the profile yields (u, u_r, u_t) from one call on
    the block's broadcast axes. Each column is summed over rho in order
    into the nine powers rho^(i+j), so the moments do not depend on the
    block width to the last bit; then entry [i, j] sums those over phi with
    cos^(n-2+i) phi sin^j phi. A half-space build continues the rho sums
    cached at D = 2^floor(log2 R) by an earlier build with the same profile
    and resolution, to the same bits. The boundary traces run on the phi = 0
    ray, on the same rho nodes. Raises OverflowError when the rho weights
    are not finite in float64, and QuadratureNonConvergence when the
    resolutions differ by more than ``_MATRIX_TOL`` relative. Memoized by
    (profile fingerprint, R, spec).
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


def _polar_grid(profile: RadialProfile, R: float, sp: QuadratureSpec) -> tuple:
    """(rho, w_rho, phi, w_phi) of one resolution: GL on panels of rho in
    [0, 2R] and phi in [0, pi/2], or the one node phi = 0 for a radial kind.

    rho runs on dyadic panels with edges at R and 1.5R, where chi_R turns;
    phi on two panels. A profile centered at depth ``shift`` > 0 adds the
    edges shift/2 and 3 shift/2 in rho and 3pi/8 in phi around its core, and
    a profile with a GN exponent p the edges (pi/4) 2^-k, k = 1..3, toward
    phi = 0: it vanishes on {t = 0}, so |w|^(p+1) ~ t^(p+1) is not smooth
    there. With them the GN near-optimizers' moments lie within 2e-12 of a
    high-order tensor-grid reference at p = 1.1, 1.5, 3, 5, 7 (n = 2) and
    p = 1.3, 3, 4 (n = 3); without them (2, 1.1) is 1.2e-9 off, and (2, 7)
    and (3, 4) fail the two-resolution guard.
    """
    s = profile.shift
    core = (0.5 * s, 1.5 * s) if s > 0.0 else ()
    rho, w_rho = grid_1d(0.0, 2.0 * R, sp.order, sp.subdiv, extra=(R, 1.5 * R) + core)
    if profile.kind not in _HALFSPACE_KINDS:
        return rho, w_rho, np.zeros(1), np.ones(1)
    quarter = 0.25 * math.pi
    grade = (((0.5 * quarter, 0.25 * quarter, 0.125 * quarter) if profile.p is not None else ())
             + ((1.5 * quarter,) if core else ()))
    return (rho, w_rho) + grid_1d(0.0, 2.0 * quarter, sp.order, sp.subdiv, base=quarter,
                                  extra=grade)


def _build_moment_matrix(profile: RadialProfile, R: float,
                         spec: QuadratureSpec) -> _HalfspaceMatrix:
    if R == math.inf:
        return _untruncated_escobar(profile)
    n, p = profile.n, profile.p
    halfspace = profile.kind in _HALFSPACE_KINDS
    # r^(n-2) dr dt = rho^(n-1) cos^(n-2) phi drho dphi on the half-space, and
    # r^(n-1) dr on one ray for the radial kinds
    om = sphere_area(n - 2 if halfspace else n - 1)
    chi = cutoff(R)
    names = ("tan", "nor", "w2", "w1") + (() if p is None else ("pp",))
    # chi_R = 1 on the dyadic rho panels [0, 1], ..., [D/2, D], D = 2^floor(log2 R),
    # so their nodes and rho sums are the same at every cutoff with this D
    D = math.ldexp(0.5, math.frexp(R)[1])
    fingerprint = _profile_fingerprint(profile) if halfspace else None
    fresh = []   # (key, rho sums at D) per resolution, stored once the guard passes

    def run(sp: QuadratureSpec):
        rho, wrho, phi, wphi = _polar_grid(profile, R, sp)
        with np.errstate(over="ignore", invalid="ignore"):
            Vrho = rho ** _RHO_POWERS * (wrho * om * rho ** (n - 1))
        if not np.isfinite(Vrho).all():
            raise OverflowError(f"moment weights rho^(n-1) overflow float64 at n={n}, R={R}")
        cos, sin = np.cos(phi), np.sin(phi)
        c, dc = chi._glue(rho)
        # a half-space build's rho sums start at node lo, from the sums cached
        # at the largest edge <= D (or from zero), are kept at node cut, the
        # first past D, unless D is cached already, and go on to the last
        # node. A radial kind, with one phi column, sums all nodes in one piece.
        lo, cut, prior = 0, rho.size, None
        if halfspace:
            key = ("rho-sums", fingerprint, sp)
            cached = _memo.get(key, {})
            if cached:
                _memo.move_to_end(key)
            start = max((d for d in cached if d <= D), default=None)
            if start is not None:
                lo, prior = int(np.searchsorted(rho, start)), cached[start]
            cut = int(np.searchsorted(rho, D))
        bounds = sorted({lo, cut, rho.size})
        # each field is first summed over rho into its nine powers rho^(i+j),
        # then over phi with cos^(n-2+i) sin^j: einsum only, no BLAS call,
        # which is far slower on these small shapes. A piece that continues a
        # sum puts the identity in front of its weights and the sum in front
        # of its field rows, so einsum adds on where the sum stopped.
        eye = np.eye(_DEGREES)
        pieces = [(a, b, Vrho[:, a:b] if a == 0 else np.concatenate((eye, Vrho[:, a:b]), axis=1))
                  for a, b in zip(bounds, bounds[1:])]
        rsum = {name: np.empty((_DEGREES, phi.size)) for name in names}
        at_D = ({name: np.empty((_DEGREES, phi.size)) for name in names}
                if halfspace and lo < cut else None)
        rg, cg, dcg = rho[lo:, None], c[lo:, None], dc[lo:, None]
        # one block of whole phi columns at a time, so a block's fields stay
        # in cache. einsum adds over rho strictly in order when a block holds
        # two columns or more, which keeps every bit whatever the block width
        # or the piece a sum continues from; a block holds two columns or
        # more unless the grid has one (einsum sums a lone contiguous column
        # with its reduction kernel, in another order).
        width = max(2, _BLOCK // rg.size)
        starts = range(0, max(phi.size - 1, 1), width)
        for j0, j1 in zip(starts, [*starts[1:], phi.size]):
            cb, sb = cos[None, j0:j1], sin[None, j0:j1]
            u, ur, ut = profile._fields(rg * cb, rg * sb)
            # grad(chi u) = chi grad u + u chi' (cos phi, sin phi)
            udc = u * dcg
            tan = cg * ur + udc * cb
            nor = np.zeros_like(tan) if ut is None else cg * ut + udc * sb
            w = cg * u
            fields = {"tan": np.square(tan, out=tan), "nor": np.square(nor, out=nor),
                      "w2": w ** 2, "w1": w}
            if p is not None:
                fields["pp"] = np.abs(w) ** (p + 1.0)
            for name, F in fields.items():
                acc = None if prior is None else prior[name][:, j0:j1]
                for a, b, V in pieces:
                    rows = F[a - lo:b - lo]
                    acc = np.einsum("ka,ab->kb", V, rows if a == 0 else np.concatenate((acc, rows)))
                    if b == cut and at_D is not None:
                        at_D[name][:, j0:j1] = acc
                rsum[name][:, j0:j1] = acc
        if at_D is not None:
            fresh.append((key, {name: _read_only(S) for name, S in at_D.items()}))
        table = cos ** (n - 2 + _POWERS[:, :, None]) * sin ** _POWERS.T[:, :, None] * wphi
        out = {name: np.einsum("ijb,ijb->ij", table, S[_POWERS + _POWERS.T])
               for name, S in rsum.items()}
        # boundary traces on the phi = 0 ray (critical exponent defined for
        # n >= 3; the GN half-space profiles are Dirichlet and never use these)
        if halfspace and n >= 3:
            q = 2.0 * (n - 1) / (n - 2)
            ub = c * profile.value(rho, 0.0)
            Vr = rho ** _POWERS * (wrho * om * rho ** (n - 2))
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
    for key, sums in fresh:
        _remember(key, {**_memo.get(key, {}), D: sums})
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
        self._forms = {}

    def _fields(self, eps):
        """eps as a float array, then each field's eps-dependent part (the
        polynomial without its constant term) and its value, at every eps:
        arrays of shape (field, *eps.shape), a field's row at ``_ROW[name]``.

        Horner's rule from the highest degree any field uses: only products
        and sums, so an eps gets the same bits whatever array it comes in.
        With one eps the fields are numpy scalars, whose ``**`` is libm's
        pow, not numpy's, so the quotients take their powers with np.power.
        """
        if self.R == math.inf:
            raise ChartOverflowError("an untruncated bubble (R = inf) overflows every chart")
        eps = np.asarray(eps, dtype=float)
        e = eps.reshape(1, -1)
        top = self._top          # the first step, (0 + c_top) e, is c_top e exactly
        part = self._table[:, top:top + 1] * e if top else np.zeros((len(_FIELDS), e.size))
        for d in range(top - 1, 0, -1):     # (field, eps)
            part += self._table[:, d:d + 1]
            part *= e
        shape = (-1,) + eps.shape
        return eps, part.reshape(shape), (part + self._table[:, :1]).reshape(shape)

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
        return self._fields(eps)[2][_ROW[name]]

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
        volume element is positive. A factor that turns non-positive raises.
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
                stacklevel=4)

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

    def _term_sums(self, name: str, eps: np.ndarray) -> np.ndarray:
        """A field's change at each eps, summed term by term in its polynomial's
        order (tan's, then nor's for the Dirichlet energy): GN's logs cancel
        fifty-fold, so ``_fields``' grouping by degree would move it 9e-15."""
        parts = [(getattr(self, dict(_PAIRS)[f]), getattr(self.M, f))
                 for f in (("tan", "nor") if name == "dirichlet" else (name,))]
        return np.reshape([sum(sum(c * matrix[key] * e ** (key[0] + key[1])
                                   for key, c in poly.items() if key[0] + key[1] > 0)
                               for poly, matrix in parts)
                           for e in eps.ravel().tolist()], eps.shape)

    def _form(self, functional: str) -> tuple:
        """``_FORMS[functional]``, its powers, F_k(0) and flat value, memoized."""
        if functional not in self._forms:
            form = _FORMS[functional]
            if form.factors[0].field == "pp" and self.M.pp is None:
                raise ValueError("model built without the L^(p+1) weight")
            powers = form.powers(self.n, self.profile.p)
            F0 = [self._coef[f.field][0] for f in form.factors]
            flat = F0[0] / reduce(operator.mul, [F ** b for F, b in zip(F0[1:], powers)])
            self._forms[functional] = form, powers, F0, flat
        return self._forms[functional]

    def _quotient(self, functional: str, eps) -> QuotientResult:
        """``functional`` at every eps. The relative change never cancels; a
        factor changed by dF <= -F(0) means that the jet's volume element is
        non-positive on the support. So does a factor's own field changed so,
        whatever its terms add: Escobar's N can stay positive through its H
        term while the Dirichlet energy D in it does not."""
        form, powers, F0, flat = self._form(functional)
        eps, delta, value = self._fields(eps)
        if form.warn:
            self._check_jet_positivity(eps)
        breakdown, values, ratios, own = {}, [], [], []
        for f, f0 in zip(form.factors, F0):
            F = breakdown[f.key] = value[_ROW[f.field]]
            dF = self._term_sums(f.field, eps) if form.term_sums else delta[_ROW[f.field]]
            if f.terms:   # F0 is the field's own constant term: its terms carry eps
                own.append(dF / f0)
            for key, name, _, coef in f.terms:
                x = breakdown[key] = coef(self, eps) * value[_ROW[name]]
                F, dF = F + x, dF + x
            if f.gauge:   # q cbar int u^(q-1) dsigma, u = eps^(-(n-2)/2) w(./eps)
                n = self.n
                cbar = eps ** ((n + 2) / 2.0) * value[_ROW["w1"]] / self._chart_volume
                x = -2.0 * (n - 1) / (n - 2) * cbar * eps ** ((n - 2) / 2.0) * value[_ROW["trq1"]]
                breakdown.update(gauge_shift=cbar, gauge_correction=x)
                F, dF = F + x, dF + x
            values.append(F)
            ratios.append(dF / f0)
        if np.minimum.reduce(ratios + own, axis=None) <= -1.0:
            bad = reduce(np.minimum, ratios + own) <= -1.0
            raise ValueError(f"jet volume element non-positive on the bubble support at eps="
                             f"{eps.flat[np.argmax(bad)]:.6g}; shrink eps or the cutoff")
        if form.term_sums:   # libm's log1p and expm1, one eps at a time
            rel = np.reshape([_rel_change(powers, r, math) for r in
                              zip(*(np.ravel(r).tolist() for r in ratios))], eps.shape)[()]
        else:
            rel = _rel_change(powers, ratios, np)
        if form.relative:   # GN reports the relative change itself
            breakdown["rel_change"] = rel
        deficit = -rel if form.relative else flat * rel
        quotient = flat * (1.0 + rel) if form.relative else flat + deficit
        denominator = reduce(operator.mul, [np.power(F, b) for F, b in zip(values[1:], powers)])
        return QuotientResult(functional, eps[()], self.R, values[0], denominator,
                              quotient, flat, deficit, breakdown, self.M.err)

    def escobar_quotient(self, eps) -> QuotientResult:
        return self._quotient("escobar", eps)

    def plain_trace_quotient(self, eps) -> QuotientResult:
        return self._quotient("plain-trace", eps)

    def gn_quotient(self, eps) -> QuotientResult:
        return self._quotient("gn-boundary", eps)

    def flat(self, functional: str) -> float:
        """``functional`` at eps = 0, on the flat half-space (or space)."""
        return self._form(functional)[3]

    def series(self, functional: str, order: Optional[int] = None) -> np.ndarray:
        """c_1..c_order of Q(eps)/Q(0) - 1 of the jet model (``order`` by default
        the form's); the plain trace's gauge, O(eps^n), is left out."""
        form, powers, _, _ = self._form(functional)
        order = form.order if order is None else order
        rel = None
        for f, b in zip(form.factors[::-1], powers[::-1] + (None,)):   # from the right
            s = self._series(f.field, order)
            s = s.copy() if f.terms else s      # the terms add in place
            for _, name, power, coef in f.terms:
                s[power:] += coef(self, 1.0) * self._series(name, order - power)
            s = s / s[0] if b is None else _ser_pow(s / s[0], -b)
            rel = s if rel is None else _ser_mul(s, rel)
        return rel[1:order + 1]


class InteriorEnergyModel(HalfspaceEnergyModel):
    """GN quotient of an interior bubble over the normal-coordinate jet: the
    1-D case of the half-space model (a radial profile's matrix has nor = 0 and
    only t-power 0, its boundary density is empty), sharing its set-up."""

    def __init__(self, data: InteriorPointData, profile: RadialProfile, R: float,
                 spec: QuadratureSpec = DEFAULT_QUAD):
        if profile.p is None:
            raise ValueError("interior GN model needs a GN ground-state profile")
        self.data = data
        self._setup(_jet_polys(data), profile, R, spec)

    def gn_quotient(self, eps) -> QuotientResult:
        return self._quotient("gn-interior", eps)


# A factor: a field, its breakdown key, eps-shifted terms (key, field, eps power,
# coef(model, eps)) and the plain trace's gauge, which the series leave out.
_Factor = namedtuple("_Factor", "field key terms gauge", defaults=((), False))
# A functional F_0 / prod_k F_k^b_k: model class, entry point, factors, the
# divisors' powers b_k(n, p) and the default series order. GN sums changes term
# by term and its deficit is -rel; Escobar checks the jet's volume element.
_Form = namedtuple("_Form", "model quotient factors powers order term_sums relative warn",
                   defaults=(False, False, False))


def _rel_change(powers: tuple, ratios, lib):
    """expm1(log1p(r_0) - sum_k b_k log1p(r_k)) in factor order, by ``lib``."""
    logs = [-b * lib.log1p(r) for b, r in zip(powers, ratios[1:])]
    return lib.expm1(sum(logs, lib.log1p(ratios[0])))


# Escobar N Tq^(-2/q), N = D + c_n Scal_g eps^2 I_2 + ((n-2)/2) eps H tr2;
# plain trace (Tq + gauge) D^(-(n-1)/(n-2)); GN I_pp I_2^(-alpha/2) D^(-beta/2)
_GN = {"factors": (_Factor("pp", "I_pp"), _Factor("w2", "I_2"), _Factor("dirichlet", "dirichlet")),
       "powers": lambda n, p: tuple(x / 2.0 for x in gn_exponents(n, p)),
       "order": 3, "term_sums": True, "relative": True}
_FORMS = {
    "escobar": _Form(HalfspaceEnergyModel, "escobar_quotient", (
        _Factor("dirichlet", "gradient", (
            ("scal", "w2", 2, lambda m, e: (m.n - 2) / (4.0 * (m.n - 1)) * m._scal * e ** 2),
            ("H_boundary", "tr2", 1, lambda m, e: (m.n - 2) / 2.0 * e * m._H))),
        _Factor("trq", "trace_mass")),
        lambda n, p: (2.0 / (2.0 * (n - 1) / (n - 2)),), 4, warn=True),
    "plain-trace": _Form(HalfspaceEnergyModel, "plain_trace_quotient", (
        _Factor("trq", "trace_mass", gauge=True), _Factor("dirichlet", "dirichlet")),
        lambda n, p: ((n - 1.0) / (n - 2.0),), 3),
    "gn-boundary": _Form(HalfspaceEnergyModel, "gn_quotient", **_GN),
    "gn-interior": _Form(InteriorEnergyModel, "gn_quotient", **_GN),
}


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
    form = _FORMS[functional]
    model = form.model(jet, profile, R)
    res = getattr(model, form.quotient)(eps_grid)
    return DeficitSweep(functional, eps_grid, res.deficit, res.reference, result=res,
                        series=model.series(functional))


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
    exact jet series (``series("escobar")[1]``) of the probe's model at R and
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
        series = model.series("escobar", min(4, n - 3) if exact else 4)
        c2[key] = float(series[1])
        fit_errors[key] = 0.0 if exact else float(abs(
            model.escobar_quotient(eps).deficit / model.flat("escobar")
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
