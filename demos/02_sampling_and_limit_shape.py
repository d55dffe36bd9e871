# Random Young diagrams via RSK insertion and their limit shape.
#
# Sampling i.i.d. uniform letters from {1..N} and applying row insertion
# yields a random partition distributed by the Schur-Weyl measure with
# parameter c = sqrt(n)/N.  As n grows, the rescaled boundary profile
# L_lambda concentrates around a deterministic curve Omega_c.  This
# script measures the sup distance for increasing n.

import argparse

import numpy as np

from ytensor import rsk, shape
from ytensor.diagrams import profile


def sup_distance(lam, c):
    prof = profile(lam)
    lo, hi = prof.support
    grid = np.arange(lo, hi, 1e-3)
    omega = shape.omega_c(c, grid)
    return float(np.max(np.abs(prof.evaluate(grid) - omega)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    for n in [100, 400, 1600, 6400]:
        N = round(np.sqrt(n) / args.c)
        c_n = np.sqrt(n) / N
        dists = [sup_distance(lam, c_n)
                 for lam in rsk.sample_schur_weyl(n, N, seed=args.seed,
                                                  count=args.samples)]
        print(f"n={n:>6} N={N:>3}  median sup|L - Omega_c| = "
              f"{np.median(dists):.4f}  (max {np.max(dists):.4f})")

    # the first row of the RSK shape is the longest weakly increasing
    # subsequence of the word; show one explicit small example.
    letters = (2, 1, 2, 3, 1, 3, 3, 2)
    lam = rsk.rsk_shape_from_letters(letters)
    print(f"\nRSK shape of {letters}: {lam}")


if __name__ == "__main__":
    main()
