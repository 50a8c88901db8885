"""Panelled Gauss-Legendre quadrature used by every integral in the package.

All bulk integrals reduce to 1D or 2D weighted integrals after the angular
variables are averaged out analytically (profiles are tangentially radial),
so the only machinery needed is Gauss-Legendre on panels: a product rule in
polar coordinates (rho on dyadic panels, phi on panels of [0, pi/2]) on the
half-space, one rho rule on a ray for radial profiles, and the rules of the
Bessel integrals, whose Hankel expansions read ``hankel_factors``. Every
integrand is cut off at a finite range, so no rule covers [0, inf).

Error estimates are two-resolution differences (panel count doubled), per
the convergence convention used throughout: the moment engine
(``energy.halfspace_moment_matrix``) accepts a build when the doubling
changes every moment by at most ``energy._MATRIX_TOL`` = 1e-6 relative
(absolute below magnitude 1), and raises otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def sorted_unique(a) -> np.ndarray:
    """The sorted distinct values of a float array, flattened: ``np.unique``
    bit for bit, which would import ``numpy.ma`` (about 14 ms and 1.3 MB of
    resident memory per process)."""
    a = np.sort(np.asarray(a, dtype=float), axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def panel_edges(a: float, b: float, base: float = 1.0,
                extra: tuple = ()) -> np.ndarray:
    """Dyadic panel edges on [a, b] (plus any ``extra`` interior edges)."""
    if b <= a:
        raise ValueError(f"empty panel interval [{a}, {b}]")
    edges = [a]
    t = base
    while t < b:
        if t > a:
            edges.append(t)
        t *= 2.0
    edges.append(b)
    edges.extend(e for e in extra if a < e < b)
    return sorted_unique(edges)


def grid_1d(a: float, b: float, order: int, subdiv: int = 1,
            base: float = 1.0, extra: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of panelled GL on [a, b]; each dyadic panel split ``subdiv`` times."""
    edges = panel_edges(a, b, base=base, extra=extra)
    lo, hi = edges[:-1, None], edges[1:, None]
    # np.linspace(lo, hi, subdiv + 1) on every panel at once, bit for bit:
    # cut i is i * step + lo, and the last cut is hi itself
    cuts = np.arange(subdiv + 1.0) * ((hi - lo) / subdiv) + lo
    cuts[:, -1] = hi[:, 0]
    cuts = sorted_unique(cuts)
    x0, w0 = _gl_nodes(order)
    lo, h = cuts[:-1, None], 0.5 * np.diff(cuts)[:, None]
    return (lo + h * (x0 + 1.0)).ravel(), (h * w0).ravel()


def hankel_factors(nu: float, terms: int) -> np.ndarray:
    """Ratios a_k(nu) / a_(k-1)(nu) = (4 nu^2 - (2k - 1)^2) / (8k), 0 < k < terms, of
    the coefficients of Hankel's expansions (DLMF 10.17.1, 10.40.2); a_0 = 1."""
    k = np.arange(1.0, terms)
    return (4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for all panelled rules.

    order: GL points per panel and direction.
    subdiv: extra uniform splits of each dyadic panel (doubled for the
        error-estimate pass).
    """
    order: int = 20
    subdiv: int = 1

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(order=self.order, subdiv=2 * self.subdiv)


DEFAULT_QUAD = QuadratureSpec()
