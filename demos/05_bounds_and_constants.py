# Two-sided bounds on the scaled log probability.
#
# The quantity -ln P(lambda) / sqrt(n) is bounded below (asymptotically)
# by a constant alpha_c obtained from the minimizing shape and above by
# beta = 2 pi / sqrt(6), the constant governing the growth of the
# partition function p(n) ~ exp(beta sqrt(n)).  This script evaluates
# both constants, checks the partition asymptotics, and confirms that
# sampled diagrams land inside the window.

import argparse
import math

from ytensor import exact, functionals as F, harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2500)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args()

    beta = F.beta_constant()
    print(f"beta = 2 pi / sqrt(6) = {beta:.10f}")
    for c in [0.0, 0.5, 1.0, 2.0]:
        print(f"alpha_{c} = {F.alpha_constant(c):.10f}")

    print("\npartition function growth:")
    for n in [10 ** 2, 10 ** 3, 10 ** 4]:
        val = math.log(exact.partition_count(n)) / math.sqrt(n)
        print(f"  ln p({n}) / sqrt({n}) = {val:.6f}  (beta - value = "
              f"{beta - val:.6f})")

    cfg = harness.ExperimentConfig(n=args.n, c=args.c,
                                   samples=args.samples, seed=args.seed)
    res = harness.cmd_bounds(cfg)
    s = res.summary
    print(f"\nsampled -ln P / sqrt(n) at n={args.n}, c={args.c}:")
    print(f"  min={s['min']:.6f}  median={s['median']:.6f}  max={s['max']:.6f}")
    print(f"  window: ({s['alpha_c'] - 0.05:.6f}, {beta:.6f})"
          f"  fraction inside = {s['fraction_inside']}")


if __name__ == "__main__":
    main()
