#!/usr/bin/env python3
"""Window-eigenvalue ladder: lambda_1 of the unit ball with a small Dirichlet
window, its capacity-scaled column, and the chained lower bound on the
Gagliardo-Nirenberg supremum.

Example:
    python scripts/run_window_ladder.py --n 3 --p 3
"""
import argparse

import numpy as np

from bubblelab.dynamics import capacity_blowup_bound


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2, choices=(2, 3))
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--dmin", type=float, default=1e-5)
    ap.add_argument("--dmax", type=float, default=1e-2)
    ap.add_argument("--rungs", type=int, default=4)
    args = ap.parse_args()

    ds = np.geomspace(args.dmax, args.dmin, args.rungs)
    # the bound returns the ladder it solved: one eigenvalue solve per rung
    lad = capacity_blowup_bound(args.n, args.p, ds)
    scaled_name = "lambda*|log d|" if args.n == 2 else "lambda/d^(n-2)"
    print(f"{'d':>10} {'lambda1':>14} {scaled_name:>16}")
    for d, lam, s in zip(lad["d"], lad["lambda1"], lad["scaled"]):
        print(f"{d:10.1e} {lam:14.8e} {s:16.8f}")
    print(f"tail variation across the last two rungs: {lad['tail_variation']:.3%}")
    print(f"chained GN-supremum bound: fitted exponent {lad['fitted_exponent']:+.4f} "
          f"vs expected {lad['expected_exponent']:+.4f} (beta = {lad['beta']})")


if __name__ == "__main__":
    main()
