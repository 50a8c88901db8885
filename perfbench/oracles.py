"""Window eigenvalues from their characteristic equations.

The first radial eigenvalue of the unit ball with a Dirichlet window of
radius d at the centre and a Neumann outer shell is lambda = k^2, with k the
first positive root of

    n = 3:  tan(k (1 - d)) = k                    (u = sin(k (r - d)) / r)
    n = 2:  J1(k) Y0(k d) - Y1(k) J0(k d) = 0     (u = J0(kr) Y0(kd) - Y0(kr) J0(kd))

Both are solved here with ``scipy.special`` and ``brentq`` on a geometric
bracket scan, independently of the shooting solver in ``bubblelab.dynamics``.
"""
from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import j0, j1, y0, y1

# the relative tolerance ``small_window_lambda1`` / ``window_ladder`` declare
LAM_TOL = 1e-8


def _residual(n: int, d: float):
    if n == 3:
        L = 1.0 - d
        # k cos(kL) - sin(kL) is u'(1) up to a positive factor
        return lambda k: k * math.cos(k * L) - math.sin(k * L)
    if n == 2:
        return lambda k: j1(k) * y0(k * d) - y1(k) * j0(k * d)
    raise ValueError("window oracle covers n in {2, 3}")


def window_lambda1(n: int, d: float) -> float:
    """First eigenvalue for 0 < d < 1, to double precision."""
    if not (0.0 < d < 1.0):
        raise ValueError("window radius must lie in (0, 1)")
    f = _residual(n, d)
    k = 1e-3 * math.sqrt(d) if n == 3 else 1e-3
    fk = f(k)
    while True:
        k2 = k * 1.05
        f2 = f(k2)
        if fk * f2 < 0.0:
            root = brentq(f, k, k2, xtol=1e-300, rtol=4.0 * 2.0 ** -52, maxiter=500)
            return root * root
        if k2 > 10.0:
            raise RuntimeError(f"no window root below k = 10 for n={n}, d={d}")
        k, fk = k2, f2
