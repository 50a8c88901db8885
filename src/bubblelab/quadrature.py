"""Panelled Gauss-Legendre quadrature used by every integral in the package.

All bulk integrals reduce to 1D or 2D weighted integrals after the angular
variables are averaged out analytically (profiles are tangentially radial),
so the only machinery needed is tensor Gauss-Legendre on dyadic panels plus
an algebraic compactification for integrals over [0, inf).

Error estimates are two-resolution differences (panel count doubled), per
the convergence convention used throughout: a value is converged when the
doubling changes it by less than ``rtol`` relatively.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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
    return np.unique(np.asarray(edges, dtype=float))


def grid_1d(a: float, b: float, order: int, subdiv: int = 1,
            base: float = 1.0, extra: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of panelled GL on [a, b]; each dyadic panel split ``subdiv`` times."""
    edges = panel_edges(a, b, base=base, extra=extra)
    fine = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        fine.append(np.linspace(lo, hi, subdiv + 1))
    cuts = np.unique(np.concatenate(fine))
    x0, w0 = _gl_nodes(order)
    xs, ws = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        h = 0.5 * (hi - lo)
        xs.append(lo + h * (x0 + 1.0))
        ws.append(h * w0)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for all panelled rules.

    order: GL points per panel and direction.
    subdiv: extra uniform splits of each dyadic panel (doubled for the
        error-estimate pass).
    rtol: declared-convergence threshold for two-resolution differences.
    """
    order: int = 20
    subdiv: int = 1
    rtol: float = 1e-8

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(order=self.order, subdiv=2 * self.subdiv, rtol=self.rtol)


DEFAULT_QUAD = QuadratureSpec()


def integrate_1d(f, xmax: float, spec: QuadratureSpec = DEFAULT_QUAD,
                 with_error: bool = False):
    """integral of f(x) over [0, xmax]."""
    def run(sp: QuadratureSpec) -> np.ndarray:
        x, w = grid_1d(0.0, xmax, sp.order, sp.subdiv)
        return np.einsum("i,i...->...", w, np.asarray(f(x)))

    coarse = run(spec)
    if not with_error:
        return coarse
    fine = run(spec.refined())
    return fine, np.abs(fine - coarse)


def integrate_radial_tail(f, x0: float, decay: float,
                          spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """integral of f(x) over [x0, inf) for f ~ x^(-decay), decay > 1.

    Substitutes x = x0/u, mapping the tail onto u in (0, 1]; for integrands
    with a 1/x-power series at infinity the result is u^(decay-2) times a
    smooth series in u, which panelled GL resolves to near machine precision
    whenever decay is an integer (all tails in this package are).
    """
    if decay <= 1.0:
        raise ValueError("tail integral requires decay exponent > 1")
    u, w = grid_1d(0.0, 1.0, spec.order, max(2, spec.subdiv), base=0.125)
    x = x0 / u
    jac = x0 / u ** 2
    return float(np.sum(w * f(x) * jac))


def integrate_halfplane_polar(f, spec: QuadratureSpec = DEFAULT_QUAD,
                              rho_inner: float = 16.0, decay: float | None = None) -> float:
    """integral over the quarter plane {r >= 0, t >= 0} of f(r, t).

    Polar coordinates (rho, phi): inner disk by panelled GL, tail in rho by the
    algebraic substitution of ``integrate_radial_tail`` (requires the radial
    decay exponent of rho -> f along rays, inclusive of any r^k weights already
    in f, to satisfy decay - 1 > 1 so the full integral converges).
    """
    if decay is None:
        raise ValueError("decay exponent required for half-plane integrals")

    phi, wphi = grid_1d(0.0, np.pi / 2.0, spec.order, spec.subdiv, base=np.pi)
    c, s = np.cos(phi), np.sin(phi)

    rho, wrho = grid_1d(0.0, rho_inner, spec.order, spec.subdiv)
    inner = np.einsum("i,j,ij->", wrho, wphi, f(np.outer(rho, c), np.outer(rho, s)) * rho[:, None])

    def radial(x):
        return np.einsum("j,ij->i", wphi, f(np.outer(x, c), np.outer(x, s))) * x

    return float(inner + integrate_radial_tail(radial, rho_inner, decay - 1.0, spec))


def integrate_ray(f, spec: QuadratureSpec = DEFAULT_QUAD, inner: float = 16.0,
                  decay: float | None = None, with_error: bool = False):
    """integral of f(x) over [0, inf) with algebraic tail of exponent ``decay``."""
    if decay is None:
        raise ValueError("decay exponent required for ray integrals")

    def run(sp: QuadratureSpec) -> float:
        head = float(integrate_1d(f, inner, sp))
        return head + integrate_radial_tail(f, inner, decay, sp)

    coarse = run(spec)
    if not with_error:
        return coarse
    fine = run(spec.refined())
    return fine, abs(fine - coarse)
