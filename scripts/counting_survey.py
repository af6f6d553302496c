#!/usr/bin/env python3
"""Survey hyperbolic-component counts across period pairs for the cubic
family with two marked critical points.

For each (n0, n1) pair prints the Bezout bound, the number of marked
solutions found, the component count N, the symmetry
stabilizer, and the deficiency against the cycle-census prediction.
Pairs whose Bezout count exceeds the solver's cap are listed as skipped.
Example:

    python3 scripts/counting_survey.py --max-n 2
"""

import argparse
import sys

from dynbif import arith
from dynbif.families import PCA3, PCA_BEZOUT_CAP, QUAD, component_count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=2,
                    help="largest period in either slot")
    ap.add_argument("--quad-max-n", type=int, default=8,
                    help="also survey the quadratic family up to this period")
    args = ap.parse_args()

    print("quadratic family (one critical point):")
    print(f"{'n':>3} {'N':>6} {'deficiency':>11}")
    for n in range(1, args.quad_max_n + 1):
        cc = component_count(QUAD, arith.PeriodTuple((n,)))
        print(f"{n:>3} {cc.N:>6} {cc.deficiency:>11.6f}")

    print()
    print("cubic family (two marked critical points):")
    print(f"{'pair':>7} {'bezout':>7} {'marked':>7} {'N':>5} {'stab':>5} "
          f"{'merged':>7} {'deficiency':>11}")
    for n0 in range(1, args.max_n + 1):
        for n1 in range(n0, args.max_n + 1):
            bezout = (arith.affine_cycle_point_count(3, n0)
                      * arith.affine_cycle_point_count(3, n1))
            if bezout > PCA_BEZOUT_CAP:
                print(f"({n0},{n1})".rjust(7) + f" skipped: Bezout count "
                      f"{bezout} per marking exceeds the cap "
                      f"{PCA_BEZOUT_CAP}")
                continue
            cc = component_count(PCA3, arith.PeriodTuple((n0, n1)))
            print(f"({n0},{n1})".rjust(7)
                  + f" {cc.bezout:>7} {cc.marked_solutions:>7} {cc.N:>5}"
                  + f" {cc.stab:>5} {cc.merged_solutions:>7}"
                  + f" {cc.deficiency:>11.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
