#!/usr/bin/env python3
"""Render the quadratic center measure up to a period as a 16-bit PGM.

Superimposes the per-period atomic center measures (each rescaled to unit
mass) on a grid over the parameter window and writes a max-normalized P5
image plus a CSV of all atoms.  Example:

    python3 scripts/center_density.py --max-n 11 --resolution 800,800 \\
        --out density.pgm
"""

import argparse
import csv
import sys

import numpy as np

from dynbif import arith
from dynbif.cli import write_pgm
from dynbif.equidist import QUAD_WINDOW, AtomicMeasure, GridDensity, \
    center_measure
from dynbif.families import QUAD


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=11)
    ap.add_argument("--resolution", type=str, default="600,600")
    ap.add_argument("--out", type=str, default="density.pgm")
    ap.add_argument("--csv", type=str, default=None,
                    help="also write the atoms as re,im,weight CSV")
    args = ap.parse_args()
    nx, ny = (int(x) for x in args.resolution.split(","))

    params, weights = [], []
    for n in range(1, args.max_n + 1):
        mu = center_measure(QUAD, arith.PeriodTuple((n,)))
        params.append(mu.params)
        weights.append(mu.weights * (1.0 / mu.total_mass))
        print(f"n={n:>2}: {len(mu.weights):>5} centers, "
              f"mass {mu.total_mass:.6f}")
    combined = AtomicMeasure(np.concatenate(params), np.concatenate(weights))
    grid = GridDensity.from_measure(combined, QUAD_WINDOW, (nx, ny))
    write_pgm(args.out, grid)
    print(f"wrote {args.out} ({nx}x{ny}, {len(combined.weights)} atoms, "
          f"{grid.mass:.4f} mass inside the window)")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["re", "im", "weight"])
            c = combined.params[:, 0]
            for x, y, wt in zip(c.real, c.imag, combined.weights):
                w.writerow([repr(float(x)), repr(float(y)), repr(float(wt))])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
