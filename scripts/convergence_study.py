#!/usr/bin/env python3
"""Error-decay study for the periodic-point Lyapunov estimator.

For a quadratic parameter c, compares L_n^r against the escape-rate closed
form over a period range and prints the rate-normalized errors
error * 2^n / sigma_2(n).  Example:

    python3 scripts/convergence_study.py --c 1.0 --n 6..12 --r 1.0
"""

import argparse
import sys

import numpy as np

from dynbif import arith
from dynbif.families import QUAD, map_at
from dynbif.lyapunov import lyap_periodic, lyap_poly_closed_form, \
    lyap_oracle_backward


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", type=complex, default=1.0 + 0.0j)
    ap.add_argument("--n", type=str, default="6..12", help="period or lo..hi")
    ap.add_argument("--r", type=float, default=1.0)
    ap.add_argument("--mc-check", action="store_true",
                    help="cross-check the reference with the backward "
                         "Monte Carlo oracle")
    args = ap.parse_args()
    lo, _, hi = args.n.partition("..")
    lo = int(lo)
    hi = int(hi or lo)

    c = complex(args.c)
    F = map_at(QUAD, [c])
    coeffs = np.array([c, 0.0, 1.0], dtype=complex)
    ref = lyap_poly_closed_form(coeffs)
    print(f"c = {c}, closed-form reference L = {ref:.15f}")
    if args.mc_check:
        mc = lyap_oracle_backward(F, samples=600, depth=60, seed=0)
        print(f"backward Monte Carlo oracle:    {mc.value:.6f} "
              f"+- {mc.stderr:.6f}")

    print(f"{'n':>3} {'L_n^r':>20} {'error':>12} {'normalized':>12}")
    for n in range(lo, hi + 1):
        est = lyap_periodic(F, n, r=args.r)
        err = abs(est.value - ref)
        norm = err * 2.0**n / arith.sigma(2, n)
        print(f"{n:>3} {est.value:>20.15f} {err:>12.3e} {norm:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
