#!/usr/bin/env python3
"""Fit the second-order curvature channel constants from energy sweeps on
channel-isolating geometries and cross-check the traceless-II channel
against its moment formula.

Example:
    python scripts/run_channel_fit.py --n 5 --R 100
"""
import argparse

from bubblelab.profiles import escobar_halfspace_optimizer
from bubblelab.moments import weighted_moments, escobar_constants
from bubblelab.energy import channel_fit_second_order


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--R", type=float, default=100.0)
    ap.add_argument("--eps0", type=float, default=4e-3)
    args = ap.parse_args()

    U = escobar_halfspace_optimizer(args.n)
    C = escobar_constants(args.n, weighted_moments(U, 40.0))
    fit = channel_fit_second_order(args.n, U, C, R=args.R, eps0=args.eps0)
    print(f"channel fit at n={args.n}, R={args.R}")
    print(f"  kappa1 (normal Ricci)       = {fit.kappa1:+.8f}")
    print(f"  kappa2 (boundary scalar)    = {fit.kappa2:+.8f}   positive: {fit.kappa2_positive}")
    print(f"  kappa3 fitted               = {fit.kappa3_fit:+.8f}")
    print(f"  kappa3 from moments         = {fit.kappa3_moment:+.8f}   "
          f"(rel dev {fit.kappa3_rel_err:.3%})")
    print(f"  max fit residual            = {max(fit.fit_errors.values()):.2e}")


if __name__ == "__main__":
    main()
