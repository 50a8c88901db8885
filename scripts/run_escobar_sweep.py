#!/usr/bin/env python3
"""Sweep the boundary-bubble energy quotient on a catalog geometry and fit
the expansion coefficients against the exact jet series.

Example:
    python scripts/run_escobar_sweep.py --n 5 --geometry h-only --H 1.0
"""
import argparse

import numpy as np

from bubblelab.profiles import escobar_halfspace_optimizer
from bubblelab.moments import weighted_moments, escobar_constants
from bubblelab.geometry import geometry_catalog, fermi_jet
from bubblelab.energy import deficit_series, fit_power_series


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--geometry", default="h-only")
    ap.add_argument("--H", type=float, default=1.0)
    ap.add_argument("--R", type=float, default=40.0)
    ap.add_argument("--eps0", type=float, default=1e-2)
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--functional", default="escobar",
                    choices=("escobar", "plain-trace"))
    args = ap.parse_args()

    U = escobar_halfspace_optimizer(args.n)
    C = escobar_constants(args.n, weighted_moments(U, args.R))
    # --H sets the mean curvature of h-only, the one entry that reads it
    kw = {"H": args.H} if args.geometry == "h-only" else {}
    geo = geometry_catalog(args.geometry, args.n, **kw)
    jet = fermi_jet(geo.data, order=2, chart_radius=max(1.0, args.eps0 * 2.1 * args.R))
    eps = args.eps0 * 0.5 ** np.arange(args.levels)
    sweep = deficit_series(jet, U, args.R, eps, functional=args.functional)

    print(f"{args.functional} sweep on {geo.name}, n={args.n}, R={args.R}")
    print(f"{'eps':>12} {'quotient':>16} {'deficit':>14}")
    r = sweep.result
    for e, quotient, deficit in zip(r.eps, r.quotient, r.deficit):
        print(f"{e:12.5g} {quotient:16.10f} {deficit:14.6e}")
    fit = fit_power_series(eps, sweep.deficits / sweep.reference, (1, 2, 3))
    print(f"fitted (c1, c2, c3)   = {fit}")
    print(f"exact jet series      = {sweep.series[:3]}")
    ref = C.rho_conf if args.functional == "escobar" else C.plain_rho
    first = ref * geo.data.H
    dev = abs(fit[0] - first)
    # a zero reference (H = 0) has no relative deviation
    dev_text = f"rel dev {dev / abs(first):.3%}" if first else f"abs dev {dev:.3e}"
    print(f"first-order reference = {first:.8f}  ({dev_text})")


if __name__ == "__main__":
    main()
