# Random Young diagrams via RSK insertion and their limit shape.
#
# Sampling i.i.d. uniform letters from {1..N} and applying row insertion
# yields a random partition distributed by the Schur-Weyl measure with
# parameter c = sqrt(n)/N.  As n grows, the rescaled boundary profile
# L_lambda concentrates around a deterministic curve Omega_c.  This
# script measures the sup distance for increasing n, as `ytensor biane`
# reports it.

import argparse

from ytensor import harness, rsk
from ytensor.harness import ExperimentConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    for n in [100, 400, 1600, 6400]:
        summary = harness.cmd_biane(ExperimentConfig(
            n=n, c=args.c, samples=args.samples, seed=args.seed)).summary
        print(f"n={n:>6} N={summary['N']:>3}  median sup|L - Omega_c| = "
              f"{summary['median']:.4f}  (max {summary['max']:.4f})")

    # the first row of the RSK shape is the longest weakly increasing
    # subsequence of the word; show one explicit small example.
    letters = (2, 1, 2, 3, 1, 3, 3, 2)
    lam = rsk.rsk_shape_from_letters(letters)
    print(f"\nRSK shape of {letters}: {lam}")


if __name__ == "__main__":
    main()
