#!/usr/bin/env python3
"""Read the second-order curvature channel constants from the exact jet
series of channel-isolating geometries, guarded by one quadrature level,
and cross-check the traceless-II channel against its moment formula.

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
    args = ap.parse_args()

    U = escobar_halfspace_optimizer(args.n)
    # the moment kappa3 at the same truncation as the channel series
    C = escobar_constants(args.n, weighted_moments(U, args.R))
    fit = channel_fit_second_order(args.n, U, C, R=args.R)
    print(f"channel fit at n={args.n}, R={args.R}")
    print(f"  kappa1 (normal Ricci)       = {fit.kappa1:+.8f}")
    print(f"  kappa2 (boundary scalar)    = {fit.kappa2:+.8f}   positive: {fit.kappa2_positive}")
    print(f"  kappa3 from the series      = {fit.kappa3_fit:+.8f}")
    print(f"  kappa3 from moments         = {fit.kappa3_moment:+.8f}   "
          f"(rel dev {fit.kappa3_rel_err:.3%})")
    print(f"  max series-guard residual   = {max(fit.fit_errors.values()):.2e}")


if __name__ == "__main__":
    main()
