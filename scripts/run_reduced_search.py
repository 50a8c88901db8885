#!/usr/bin/env python3
"""Critical-point search for the center-only potential W_k on the circle.

Example:
    python scripts/run_reduced_search.py --field "cos(2*theta)" --k 2
"""
import argparse

import numpy as np

from bubblelab.reduced import ExpressionField, CircleDomain, critical_point_search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--field", default="cos(2*theta)")
    ap.add_argument("--k", type=int, default=2)
    # accepted for compatibility; the search draws no random numbers
    ap.add_argument("--seeds", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = ExpressionField(args.field)
    pts = critical_point_search(field, args.k, CircleDomain(),
                                seeds=args.seeds, seed=args.seed)
    print(f"{len(pts)} critical configuration(s) of W_{args.k} for field '{args.field}'")
    for p in pts:
        if p.degenerate or p.inertia[1]:
            kind = "degenerate"
        elif p.inertia[0] == 0:
            kind = "minimum"
        elif p.inertia[0] == args.k * field.dim:
            kind = "maximum"
        else:
            kind = "saddle"
        print(f"  centers {np.round(p.centers.ravel(), 6)}  value {p.value:+.8f}  "
              f"inertia {p.inertia}  ({kind})")


if __name__ == "__main__":
    main()
