# The variational identity behind the energy gap.
#
# Writing f = L_lambda - Omega_c for the profile of any diagram with at
# most N rows, the gap theta(L) - rho(L) equals a Sobolev-type half norm of
# f plus a nonnegative penalty supported outside the bulk:
#
#   theta - rho = 0.5 ||f||^2_{1/2} + 2 int_{|z|>1} H'(z) f(z + c/2) dz.
#
# Both summands vanish exactly when L = Omega_c, which identifies the
# limit shape as the unique minimizer.  This script verifies the
# identity numerically on random diagrams and at the minimizer itself.

import argparse

from ytensor import checks, functionals as F, rsk


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--N", type=int, default=25)
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()

    for lam in rsk.sample_schur_weyl(args.n, args.N, seed=args.seed,
                                     count=args.samples):
        lhs, rhs = F.prop41_identity(lam, args.N)
        print(f"gap = {lhs:.10f}   norm + penalty = {rhs:.10f}"
              f"   |diff| = {abs(lhs - rhs):.2e}")

    print("\nat the minimizer L = Omega_c the gap vanishes:")
    for cc in [0.5, 1.0, 2.0]:
        gap = F.theta_shape(cc) - checks._rho_curve(checks.shape_curve(cc), cc)
        print(f"  c={cc}: theta - rho = {gap:.2e}")


if __name__ == "__main__":
    main()
