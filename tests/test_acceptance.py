"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import hashlib
import math
import statistics
from itertools import chain

import pytest

from ytensor import checks, exact, functionals as F, harness, rsk, shape


def report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def passed(family) -> bool:
    records, _ = checks.run_checks(family)
    return all(r["pass"] for r in records)


def test_acceptance_01_exact_sum_identities():
    ok = passed(checks.sum_rules(tensor=[(n, N) for n in range(1, 11) for N in range(1, 7)],
                                 plancherel=range(1, 13)))
    report(1, "sum dim_iso = N^n (n<=10, N<=6) and sum (dim_sym)^2 = n! (n<=12)", ok)


def test_acceptance_02_sampler_chi_square():
    ok = passed(checks.chi_square(sizes=[(4, 2), (5, 3), (6, 3)], count=10 ** 5, seed=2024))
    report(2, "chi-square GOF of 1e5 RSK samples at (4,2),(5,3),(6,3), alpha=1e-3", ok)


def test_acceptance_03_decomposition_residual():
    ok = passed(checks.decomposition(n=400, N=20, count=20, seed=33))
    ratios = []
    for n in [100, 400, 1600]:
        N = round(math.sqrt(n))
        lam = rsk.sample_schur_weyl(n, N, seed=34, count=1)[0]
        r = F.prop31_decompose(lam, N).residual
        ratios.append(abs(r) / (math.log(n) / math.sqrt(n)))
    ok = ok and all(a > b for a, b in zip(ratios, ratios[1:]))
    report(3, "residuals agree pairwise < 1e-9 at (400,20); scaled residual decreases", ok)


def test_acceptance_04_variational_identity():
    records, _ = checks.run_checks(chain(
        checks.variational_identity(cases=((400, 25, 10),), seed=44),
        checks.minimizer_gap()))
    ok = all(r["pass"] for r in records)
    ok = ok and sum(r["test"] == "variational_identity" for r in records) == 10
    for c in [0.5, 2.0]:
        zero = checks.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                            support=checks.default_window(c), kinks=())
        ok = ok and abs(checks._sobolev_logkernel_generic(zero)) < 1e-6
    report(4, "theta-rho = 0.5||f||^2 + penalty within 1e-6; both sides < 1e-6 at Omega_c", ok)


def test_acceptance_05_lemma_closed_forms(verify_all_report):
    # verify-all evaluates each lemma on this c grid at s = c/2 + 1.2 (lemma I),
    # x = 0.3 (lemma F3) and the default windows; its records are checked here.
    grid = [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]
    names = ("lemma_A", "lemma_I", "lemma_F3", "lemma_intIOmega")
    records = [ch for ch in verify_all_report["checks"] if ch["test"] in names]
    ok = verify_all_report["c_grid"] == grid
    ok = ok and sorted((ch["test"], ch["params"]["c"]) for ch in records) == sorted(
        (name, c) for name in names for c in grid)
    ok = ok and all(ch["pass"] and ch["abs_err"] < 1e-6 for ch in records)
    report(5, "lemma_A/I/F3/intIOmega quadrature vs closed form < 1e-6 on the c grid", ok)


def test_acceptance_06_gap_positivity():
    ok = passed(chain(checks.gap_positivity(n=400, N=20, count=50, seed=66),
                      checks.minimizer_gap(cs=[0.5, 1.0, 2.0])))
    report(6, "theta - rho >= -1e-9 on 50 samples and < 1e-6 at the minimizer", ok)


def test_acceptance_07_profile_convergence():
    medians = []
    for n in [400, 2500, 10000]:
        res = harness.cmd_biane(harness.ExperimentConfig(n=n, c=1.0, samples=50, seed=77))
        medians.append(res.summary["median"])
    ok = medians[0] > medians[1] > medians[2] and medians[2] < 0.1
    report(7, "median sup|L - Omega_c| decreases along n in {400, 2500, 10000}; < 0.1 at 1e4", ok)


def test_acceptance_08_bounds_window():
    res = harness.cmd_bounds(harness.ExperimentConfig(n=2500, c=1.0, samples=100, seed=88))
    beta = F.beta_constant()
    ok = res.passed and abs(beta - 2 * math.pi / math.sqrt(6)) < 1e-12
    alpha = res.summary["alpha_c"]
    vals = [r["neg_log_p_scaled"] for r in res.records]
    ok = ok and all(alpha - 0.05 < v < beta for v in vals)
    report(8, "-ln P / sqrt(n) inside (alpha_1 - 0.05, beta) for 100 samples at n=2500", ok)


def test_acceptance_09_derivative_and_series_checks():
    ok = passed(chain(*(checks.derivatives(cs=[c], zs=[1.5, -1.7],
                                           ss=[0.5 * c - 0.6, 0.5 * c + 0.4, 0.3])
                        for c in [0.5, 1.0, 2.0]),
                      checks.constants_and_series(zs=[0.1, 0.3, 0.5])))
    h = 1e-6
    phi2_prime = (shape.phi(2, 0.4 + h) - shape.phi(2, 0.4 - h)) / (2 * h)
    ok = ok and abs(shape.phi(1, 0.4) - phi2_prime) < 1e-6
    report(9, "finite-difference pairs, power-series identity, m(1) = 3 - 4 ln 2", ok)


# SHA-256 of the decimal digits of p(10^5), from the pentagonal-number recurrence.
P_1E5_SHA256 = "4a292da494a2b32e3d5cf970dff0657f23d7e67d8530675af2a906c7f778ce67"


def test_acceptance_10_partition_asymptotics():
    ok = exact.partition_count(100) == 190569292
    digits = str(exact.partition_count(10 ** 5)).encode()
    ok = ok and hashlib.sha256(digits).hexdigest() == P_1E5_SHA256
    beta = F.beta_constant()
    vals = []
    for n in [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5]:
        vals.append(math.log(exact.partition_count(n)) / math.sqrt(n))
    ok = ok and all(a < b < beta for a, b in zip(vals, vals[1:]))
    gaps = [beta - v for v in vals]
    ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
    report(10, "p(100) and p(10^5) exact; ln p(n)/sqrt(n) increases toward 2 pi / sqrt(6)", ok)


def content_sum(lam) -> int:
    """The sum of the contents j - i of the cells of lam, one row at a time."""
    return sum(r * (r + 1) // 2 - i * r for i, r in enumerate(lam, start=1))


def content_square_sum(lam) -> int:
    """The sum of the squared contents (j - i)^2 of the cells of lam, one row at a time."""
    return sum(r * (r + 1) * (2 * r + 1) // 6 - i * r * (r + 1) + i * i * r
               for i, r in enumerate(lam, start=1))


# The mean and variance of the content sum are exact at every n: n(n - 1)/(2N)
# and n(n - 1)/2 (1 - 1/N^2) under Schur-Weyl, 0 and n(n - 1)/2 under Plancherel.
# The mean of the squared-content sum is n(n - 1)(n - 2)/(3N^2) + n(n - 1)/2
# under Schur-Weyl and n(n - 1)/2 under Plancherel; its z uses the sample
# variance.  tests/test_exact.py::TestContentMoments checks all of them over
# Y_N^n.  At N = 2^31 + 11 about half the letter draws are rejected, so most
# words take the sampler's redraw path through their own Generator.
@pytest.mark.parametrize("n, N, count", [
    (10 ** 3, 32, 200), (10 ** 4, 100, 50), (3 * 10 ** 4, 173, 10), (300, 10 ** 5, 200),
    (6, 2 ** 31 + 11, 2 * 10 ** 4), (10 ** 3, None, 50),
])
def test_acceptance_11_content_mean(n, N, count):
    if N is None:
        samples, mean, var = rsk.sample_plancherel(n, 0, count), 0.0, n * (n - 1) / 2
        square_mean = n * (n - 1) / 2
    else:
        samples = rsk.sample_schur_weyl(n, N, 0, count)
        mean, var = n * (n - 1) / (2 * N), n * (n - 1) / 2 * (1 - 1 / N ** 2)
        square_mean = n * (n - 1) * (n - 2) / (3 * N * N) + n * (n - 1) / 2
    z = (sum(map(content_sum, samples)) / count - mean) / math.sqrt(var / count)
    squares = [content_square_sum(lam) for lam in samples]
    z_sq = ((statistics.fmean(squares) - square_mean)
            / math.sqrt(statistics.variance(squares) / count))
    measure = "Plancherel" if N is None else f"Schur-Weyl N={N}"
    report(11, f"mean content sum and squared-content sum of {count} {measure} samples at n={n}: "
               f"|z| = {abs(z):.2f} and {abs(z_sq):.2f} <= 5", abs(z) <= 5 and abs(z_sq) <= 5)
