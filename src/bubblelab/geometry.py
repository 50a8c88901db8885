"""Pointwise boundary curvature data and second-order Fermi metric jets.

The jet of the metric at a boundary point x, in boundary-adapted coordinates
(y', y_n) with y_n the inner-normal distance:

    g_ab(y)   = delta - 2 II_ab y_n - (1/3) Rbar_{a c b d} y_c y_d
                - 2 (gradT II)_{c,ab} y_c y_n + ((II^2)_ab - R_{a n b n}) y_n^2
    g^ab(y)   = delta + 2 II^ab y_n + (1/3) Rbar^{a}{}_c{}^b{}_d y_c y_d
                + 2 (gradT II)^{ab}_c y_c y_n + (3 (II^2)^ab + R^a{}_n{}^b{}_n) y_n^2
    sqrt|g|   = 1 - H y_n - (gradT H . y') y_n
                + (H^2 - |II|^2 - Ric(nu,nu)) y_n^2 / 2
                - (1/6) Ricbar_{cd} y_c y_d
    dsigma    = (1 - (1/6) Ricbar_{cd} y_c y_d) dy'   on y_n = 0

with g_an = 0 and g_nn = 1 identically. ``terms()`` writes the four once, as
(y'-power, y_n-power, tensor) lists cut to the jet's order; ``evaluate``
reads them pointwise and ``energy`` sphere-averages them. An interior
point's normal-coordinate jet has the same form. Everything is exact
polynomial algebra in the input data (bit-reproducible); no quadrature
happens here.

Tensors the data does not pin down are closed with the isotropic models that
tangentially radial probes cannot distinguish from the general case: the
boundary Riemann tensor, like an interior point's, is ``constant_curvature``
with k = Scal_bdy/((n-1)(n-2)), and the normal-tangent block R_{a n b n} is
(Ric(nu,nu)/(n-1)) delta. The ambient scalar curvature is set by the
contracted Gauss identity Scal_g = Scal_bdy + 2 Ric(nu,nu) - H^2 + |II|^2
(an identity for hypersurfaces, not a modeling choice).
"""
from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "BoundaryPointData", "FermiJetMetric", "InteriorPointData", "ModelGeometry",
    "constant_curvature", "fermi_jet", "renormalized_mass", "theta_coefficient",
    "geometry_catalog", "CATALOG_NAMES",
]

CATALOG_NAMES = ("euclidean-ball", "flat-halfspace", "umbilic-sphere-cap",
                 "anisotropic-cylinder-like", "ricci-only", "boundary-scal-only",
                 "h-only", "custom")


def constant_curvature(scal: float, m: int) -> np.ndarray:
    """The Riemann tensor k (d_ab d_cd - d_ad d_cb), slots (a, c, b, d), of
    constant curvature k = scal/(m(m-1)) in dimension m; zero for m = 1."""
    k = scal / (m * (m - 1)) if m >= 2 else 0.0
    I = np.eye(m)
    return k * (np.einsum("ab,cd->acbd", I, I) - np.einsum("ad,cb->acbd", I, I))


def _as_matrix(II, m: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(II, dtype=float))
    if A.shape == (1, 1) and m > 1:
        A = A[0, 0] * np.eye(m)
    if A.shape != (m, m):
        raise ValueError(f"II must be {m}x{m}")
    return A


@dataclass
class BoundaryPointData:
    """Curvature data of (M, g) at one boundary point, inner-normal convention.

    II may be a scalar in n = 2 (geodesic curvature). gradT_II is the
    (n-1, n-1, n-1) array (gradT II)_{c, ab}; gradT_H the (n-1,) tangential
    gradient. The four dnu_*/lap_H channels only feed the third-order
    coefficient and default to zero.
    """
    n: int
    II: np.ndarray = None
    ric_nn: float = 0.0
    scal_bdy: float = 0.0
    riemann_bdy: Optional[np.ndarray] = None      # Rbar_{a c b d}
    r_anbn: Optional[np.ndarray] = None           # R_{a n b n}
    gradT_II: Optional[np.ndarray] = None
    gradT_H: Optional[np.ndarray] = None
    dnu_ric_nn: float = 0.0
    dnu_scal_bdy: float = 0.0
    dnu_IIring_IIring: float = 0.0
    lap_H: float = 0.0
    scal_ambient_override: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        self.n = int(self.n)
        m = self.m
        self.II = _as_matrix(self.II if self.II is not None else np.zeros((m, m)), m)
        # np.allclose's predicate (atol 1e-12, rtol 1e-5; equal infinities
        # pass, nan fails) without its overhead
        II, IIt = self.II, self.II.T
        gap = np.abs(II - IIt)
        if not (((gap <= 1e-12 + 1e-5 * np.abs(IIt)) & (gap < np.inf)) | (II == IIt)).all():
            raise ValueError("II must be symmetric")
        # store the symmetric part: exact, (a + a)/2 = a, for symmetric input
        self.II = 0.5 * (II + IIt)
        if self.gradT_II is None:
            self.gradT_II = np.zeros((m, m, m))
        if self.gradT_H is None:
            self.gradT_H = np.zeros(m)
        if self.riemann_bdy is None:
            self.riemann_bdy = constant_curvature(self.scal_bdy, m)
        if self.r_anbn is None:
            self.r_anbn = (self.ric_nn / m) * np.eye(m)

    @property
    def m(self) -> int:
        return self.n - 1

    @property
    def H(self) -> float:
        return float(np.trace(self.II))

    @property
    def II_ring(self) -> np.ndarray:
        return self.II - (self.H / self.m) * np.eye(self.m)

    @property
    def II_ring_sq(self) -> float:
        if self.n == 2:
            return 0.0   # 1x1 traceless part is identically zero
        return float(np.sum(self.II_ring ** 2))

    @property
    def II_sq(self) -> float:
        return float(np.sum(self.II ** 2))

    @property
    def ric_bar(self) -> np.ndarray:
        """Boundary Ricci, Ricbar_{cd} = Rbar_{a c a d}."""
        return np.einsum("acad->cd", self.riemann_bdy)

    @property
    def scal_ambient(self) -> float:
        """Ambient scalar curvature at the center.

        By default the contracted Gauss identity
        Scal_g = Scal_bdy + 2 Ric_nn - H^2 + |II|^2; the override exists for
        synthetic channel probes where every input but one is switched off.
        """
        if self.scal_ambient_override is not None:
            return self.scal_ambient_override
        return self.scal_bdy + 2.0 * self.ric_nn - self.H ** 2 + self.II_sq

    def validate(self) -> None:
        tr_rb = float(np.trace(self.ric_bar))
        if self.n >= 3 and abs(tr_rb - self.scal_bdy) > 1e-9 * max(1.0, abs(self.scal_bdy)):
            raise ValueError("boundary Riemann tensor inconsistent with scal_bdy")


class _Jet:
    """Pointwise evaluation of a jet from its term lists."""

    def evaluate(self, name: str, yprime, yn: float = 0.0):
        """The jet field ``name`` of ``terms()`` at (y', y_n): each term's
        leading slots contracted with y', times y_n to its power. A float for
        ``sqrt_g`` and ``bdy``, a matrix for ``g_upper`` and ``g_lower``."""
        yp = np.asarray(yprime, dtype=float)
        total = 0.0
        for px, py, T in self.terms()[name]:
            for _ in range(px):
                T = np.tensordot(yp, T, axes=(0, 0))
            total = total + T * yn ** py
        return total if np.ndim(total) else float(total)


@dataclass(frozen=True)
class FermiJetMetric(_Jet):
    """Polynomial metric jet (order 1 or 2) generated by BoundaryPointData."""
    data: BoundaryPointData
    order: int
    chart_radius: float = 1.0

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")

    def terms(self) -> dict:
        """The jet as term lists (y'-power, y_n-power, tensor), the tensor's
        first y'-power slots contracting y', cut to the jet's order.

        ``sqrt_g``, ``g_upper``, ``g_lower`` and ``bdy`` are sqrt|g|, g^ab,
        g_ab and the boundary density of the module docstring. ``ric_bar``
        rides along for the energy reduction, which reads Ricbar exactly, not
        as the -Ricbar/6 the lists hold.
        """
        d, I = self.data, np.eye(self.data.m)
        II, ric = d.II, np.zeros((d.m, d.m))
        sqrt_g = [(0, 0, np.asarray(1.0)), (0, 1, np.asarray(-d.H))]
        g_upper = [(0, 0, I), (0, 1, 2.0 * II)]
        g_lower = [(0, 0, I), (0, 1, -2.0 * II)]
        if self.order >= 2:
            ric = d.ric_bar
            rbar = np.transpose(d.riemann_bdy, (1, 3, 0, 2)) / 3.0    # (c,d,a,b)
            sqrt_g += [(1, 1, -d.gradT_H),
                       (0, 2, np.asarray(0.5 * (d.H ** 2 - d.II_sq - d.ric_nn))),
                       (2, 0, -ric / 6.0)]
            g_upper += [(2, 0, rbar), (1, 1, 2.0 * d.gradT_II),           # (c,a,b)
                        (0, 2, 3.0 * II @ II + d.r_anbn)]
            g_lower += [(2, 0, -rbar), (1, 1, -2.0 * d.gradT_II), (0, 2, II @ II - d.r_anbn)]
        # g_an = 0 and g_nn = 1, so the boundary density is sqrt|g| at y_n = 0
        return {"sqrt_g": sqrt_g, "g_upper": g_upper, "g_lower": g_lower,
                "bdy": [term for term in sqrt_g if term[1] == 0], "ric_bar": ric}

    @property
    def scal(self) -> float:
        """Scal_g as the jet carries it: a second-order term, zero at order 1."""
        return self.data.scal_ambient if self.order >= 2 else 0.0


def fermi_jet(data: BoundaryPointData, order: int = 2,
              chart_radius: float = 1.0) -> FermiJetMetric:
    data.validate()
    return FermiJetMetric(data=data, order=order, chart_radius=chart_radius)


# --------------------------------------------------------------------------
# interior data (normal-coordinate jet for GN interior bubbles)
# --------------------------------------------------------------------------

@dataclass
class InteriorPointData(_Jet):
    """Interior point: scalar curvature plus isotropic closures.

    Normal-coordinate jet: g^ij = delta + (1/3) R^i_k^j_l y^k y^l,
    sqrt|g| = 1 - (1/6) Ric_kl y^k y^l, with Ric = (scal/n) delta by default
    and R of constant curvature.
    """
    n: int
    scal: float = 0.0
    ric: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        self.n = int(self.n)
        if self.ric is None:
            self.ric = (self.scal / self.n) * np.eye(self.n)

    def terms(self) -> dict:
        """``sqrt_g`` and ``g_upper`` as ``FermiJetMetric.terms`` lists them,
        every slot a position slot."""
        riem = constant_curvature(self.scal, self.n)
        return {"sqrt_g": [(0, 0, np.asarray(1.0)), (2, 0, -self.ric / 6.0)],
                "g_upper": [(0, 0, np.eye(self.n)),
                            (2, 0, np.transpose(riem, (1, 3, 0, 2)) / 3.0)]}


# --------------------------------------------------------------------------
# model geometry catalog
# --------------------------------------------------------------------------

class ModelGeometry(NamedTuple):
    """Catalog entry: boundary data plus exact reference metrics when known."""
    name: str
    data: BoundaryPointData
    exact_fermi_gab: object = None       # callable t -> (n-1)x(n-1) matrix, or None
    exact_boundary_density: object = None  # callable r -> float (radial), or None


def _ball(n: int, radius: float = 1.0) -> ModelGeometry:
    m = n - 1
    a = float(radius)
    data = BoundaryPointData(
        n=n, II=np.eye(m) / a, ric_nn=0.0,
        scal_bdy=(m * (m - 1)) / a ** 2,
        label=f"euclidean-ball({a})")

    def exact_gab(t):
        return (1.0 - t / a) ** 2 * np.eye(m)

    def exact_density(r):
        # geodesic normal coordinates on the round sphere of radius a
        if n == 3:
            s = np.asarray(r) / a
            return np.where(s > 0, np.sin(s) / np.maximum(s, 1e-300), 1.0) ** (m - 1)
        return None

    return ModelGeometry(f"euclidean-ball({a})", data, exact_gab,
                         exact_density if n == 3 else None)


def geometry_catalog(name: str, n: int, **kw) -> ModelGeometry:
    """Named boundary geometries with known invariants.

    ``anisotropic-cylinder-like``, ``ricci-only`` and ``boundary-scal-only``
    isolate one curvature channel each (all with H = 0) so the second-order
    coefficients are identifiable one at a time.

    Every entry but ``custom`` is a pure function of (name, n, kw), built once
    per process. A call returns a copy of it whose arrays are its own, so
    changing one result in place never reaches another.
    """
    if name == "custom":
        return ModelGeometry(name, BoundaryPointData(n=n, **kw))
    entry = _catalog_entry(name, n, tuple(sorted(kw.items())))
    data = copy.copy(entry.data)                  # shallow: no second __post_init__
    for key, value in list(vars(data).items()):
        if isinstance(value, np.ndarray):
            setattr(data, key, value.copy())
    return ModelGeometry(entry.name, data, entry.exact_fermi_gab, entry.exact_boundary_density)


@lru_cache(maxsize=128)
def _catalog_entry(name: str, n: int, kw: tuple) -> ModelGeometry:
    kw = dict(kw)
    m = n - 1
    if name == "euclidean-ball":
        return _ball(n, kw.get("radius", 1.0))
    if name == "flat-halfspace":
        data = BoundaryPointData(n=n, label="flat-halfspace")
        return ModelGeometry(name, data)
    if name == "umbilic-sphere-cap":
        c = kw.get("curvature", 1.0)
        data = BoundaryPointData(n=n, II=c * np.eye(m),
                                 scal_bdy=(m * (m - 1)) * c ** 2 if n >= 3 else 0.0,
                                 label="umbilic-sphere-cap")
        return ModelGeometry(name, data)
    if name == "anisotropic-cylinder-like":
        # channel probe: every field but II_ring is off, including the ambient
        # scalar curvature the Gauss identity would otherwise generate
        if m < 2:
            raise ValueError("needs n >= 3 for a traceless direction")
        II = np.zeros((m, m))
        II[0, 0], II[1, 1] = 1.0, -1.0
        scale = kw.get("scale", 1.0)
        data = BoundaryPointData(n=n, II=scale * II, scal_ambient_override=0.0,
                                 label="anisotropic-cylinder-like")
        return ModelGeometry(name, data)
    if name == "ricci-only":
        data = BoundaryPointData(n=n, ric_nn=kw.get("value", 1.0),
                                 scal_ambient_override=0.0, label="ricci-only")
        return ModelGeometry(name, data)
    if name == "boundary-scal-only":
        data = BoundaryPointData(n=n, scal_bdy=kw.get("value", 1.0),
                                 scal_ambient_override=0.0, label="boundary-scal-only")
        return ModelGeometry(name, data)
    if name == "h-only":
        h = kw.get("H", 1.0)
        data = BoundaryPointData(n=n, II=(h / m) * np.eye(m), label="h-only")
        return ModelGeometry(name, data)
    raise KeyError(f"unknown geometry '{name}'; the catalog has {', '.join(CATALOG_NAMES)}")


# --------------------------------------------------------------------------
# energy-only curvature combinations
# --------------------------------------------------------------------------

def renormalized_mass(data: BoundaryPointData, constants) -> tuple[float, dict]:
    """kappa_3 |II_ring|^2 + kappa_1 Ric_nn + kappa_2 Scal_bdy, with breakdown:
    the H = 0 eps^2 deficit coefficient with Scal_g off, as the channel fit's
    probes have it. With the Gauss-identity Scal_g it is (kappa_3 - kappa_2)|II_ring|^2."""
    if data.n < 5:
        raise ValueError("renormalized mass is defined for n >= 5")
    constants.require_channel_fit()
    if constants.kappa3 is None:
        raise ValueError("unfit channel constants: kappa3 missing")
    parts = {
        "II_ring": constants.kappa3 * data.II_ring_sq,
        "ric_nn": constants.kappa1 * data.ric_nn,
        "scal_bdy": constants.kappa2 * data.scal_bdy,
    }
    return sum(parts.values()), parts


def theta_coefficient(data: BoundaryPointData, constants) -> tuple[float, dict]:
    """Third-order channel combination alpha_1..alpha_4 against the data."""
    if constants.alpha_channels is None:
        raise ValueError("unconfigured third-order channel constants alpha1..alpha4")
    if data.n < 6:
        warnings.warn("third-order coefficient outside its validity regime n >= 6",
                      stacklevel=2)
    a1, a2, a3, a4 = constants.alpha_channels
    parts = {
        "dnu_ric_nn": a1 * data.dnu_ric_nn,
        "dnu_scal_bdy": a2 * data.dnu_scal_bdy,
        "dnu_IIring_IIring": a3 * data.dnu_IIring_IIring,
        "lap_H": a4 * data.lap_H,
    }
    return sum(parts.values()), parts
