# Exact dimension arithmetic for tensor power decompositions.
#
# For a partition lam of n and a rank N, the isotypic component of the
# S_n x GL(N) action on (C^N)^{tensor n} has dimension
# dim_sym(lam) * dim_gl(lam, N).  Summing over all partitions with at
# most N rows recovers N^n exactly, and summing dim_sym^2 over all
# partitions of n recovers n!.  Everything below is integer arithmetic.

import argparse
import math

from ytensor import exact
from ytensor.diagrams import Partition


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--N", type=int, default=3)
    args = ap.parse_args()

    n, N = args.n, args.N
    print(f"partitions of n={n} with height <= N={N}:")
    total = 0
    for lam in exact.enumerate_diagrams(n, N):
        d = exact.exact_dims(lam, N)
        mu = d.schur_weyl.value
        print(f"  {str(lam):>20}  dim_sym={d.dim_sym:>6}  dim_gl={d.dim_gl:>8}"
              f"  dim_iso={d.dim_iso:>10}  P={mu}")
        total += d.dim_iso
    print(f"sum dim_iso = {total}")
    print(f"N^n         = {N ** n}")
    assert total == N ** n

    plancherel_total = sum(exact.dim_sym(lam) ** 2
                           for lam in exact.enumerate_diagrams(n, n))
    print(f"sum dim_sym^2 = {plancherel_total} = {n}! = {math.factorial(n)}")
    assert plancherel_total == math.factorial(n)

    lam = Partition((3, 1))
    print(f"\nhook lengths of {lam}: {exact.hook_lengths(lam)}")
    print(f"shifted contents (N={N}): {exact.shifted_contents(lam, N)}")


if __name__ == "__main__":
    main()
