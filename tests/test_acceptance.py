"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import hashlib
import math

import numpy as np
from scipy import stats

from ytensor.diagrams import Partition, profile
from ytensor import exact, functionals as F, harness, rsk, shape


def report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_exact_sum_identities():
    ok = True
    for n in range(1, 11):
        for N in range(1, 7):
            total = sum(exact.dim_iso(lam, N) for lam in exact.enumerate_diagrams(n, N))
            ok = ok and total == N ** n
    for n in range(1, 13):
        total = sum(exact.dim_sym(lam) ** 2 for lam in exact.enumerate_diagrams(n, n))
        ok = ok and total == math.factorial(n)
    report(1, "sum dim_iso = N^n (n<=10, N<=6) and sum (dim_sym)^2 = n! (n<=12)", ok)


def test_acceptance_02_sampler_chi_square():
    ok = True
    for n, N in [(4, 2), (5, 3), (6, 3)]:
        count = 10 ** 5
        obs: dict = {}
        for lam in rsk.sample_schur_weyl(n, N, seed=2024, count=count):
            obs[lam] = obs.get(lam, 0) + 1
        chisq, dof = 0.0, -1
        for lam in exact.enumerate_diagrams(n, N):
            e = float(exact.schur_weyl_measure(lam, N).value) * count
            chisq += (obs.get(lam, 0) - e) ** 2 / e
            dof += 1
        ok = ok and stats.chi2.sf(chisq, dof) > 1e-3
    report(2, "chi-square GOF of 1e5 RSK samples at (4,2),(5,3),(6,3), alpha=1e-3", ok)


def test_acceptance_03_decomposition_residual():
    n, N = 400, 20
    res = [F.prop31_decompose(lam, N).residual
           for lam in rsk.sample_schur_weyl(n, N, seed=33, count=20)]
    ok = max(res) - min(res) < 1e-6
    ratios = []
    for n in [100, 400, 1600]:
        N = round(math.sqrt(n))
        lam = rsk.sample_schur_weyl(n, N, seed=34, count=1)[0]
        r = F.prop31_decompose(lam, N).residual
        ratios.append(abs(r) / (math.log(n) / math.sqrt(n)))
    ok = ok and all(a > b for a, b in zip(ratios, ratios[1:]))
    report(3, "residuals agree pairwise < 1e-6 at (400,20); scaled residual decreases", ok)


def test_acceptance_04_variational_identity():
    n, N = 400, 25
    samples = [lam for lam in rsk.sample_schur_weyl(n, N, seed=44, count=20)
               if lam.height < N][:10]
    ok = len(samples) == 10
    for lam in samples:
        lhs, rhs = F.prop41_identity(lam, N)
        ok = ok and abs(lhs - rhs) < 1e-5
    for c in [0.5, 2.0]:
        lhs = F.theta_shape(c) - F.rho(F.shape_curve(c), c)
        zero = F.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                       support=F.default_window(c), kinks=())
        rhs = F.sobolev_half_sq(zero, route="log-kernel") + F.h_term(zero, c)
        ok = ok and abs(lhs) < 1e-6 and abs(rhs) < 1e-6
    report(4, "theta-rho = 0.5||f||^2 + penalty within 1e-5; both sides < 1e-6 at Omega_c", ok)


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
    n, N = 400, 20
    c = math.sqrt(n) / N
    gaps = [F.theta_profile(profile(lam)) - F.rho(profile(lam), c)
            for lam in rsk.sample_schur_weyl(n, N, seed=66, count=50)]
    ok = min(gaps) >= -1e-9
    for cc in [0.5, 1.0, 2.0]:
        ok = ok and abs(F.theta_shape(cc) - F.rho(F.shape_curve(cc), cc)) < 1e-6
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
    def fd(f, x, h=1e-6):
        return (f(x + h) - f(x - h)) / (2 * h)

    ok = True
    for c in [0.5, 1.0, 2.0]:
        for s in [0.5 * c - 0.6, 0.5 * c + 0.4]:
            ok = ok and abs(shape.omega_c_prime(c, s)
                            - fd(lambda x: shape.omega_c(c, x), s)) < 1e-6
        for z in [1.5, -1.7]:
            ok = ok and abs(shape.H_tilde_prime(c, z)
                            - fd(lambda y: shape.H_tilde(c, y), z)) < 1e-6
            ok = ok and abs(shape.H_tilde(c, z)
                            - fd(lambda y: shape.J_tilde(c, y), z)) < 1e-6
        ok = ok and abs(-math.log(abs(1 + 0.6 * c))
                        - fd(lambda y: shape.G(c, y), 0.3)) < 1e-6
        ok = ok and abs(shape.phi(1, 0.4) - fd(lambda y: shape.phi(2, y), 0.4)) < 1e-6
    for z in [0.1, 0.3, 0.5]:
        lhs = (-3 + (1 + 1 / z) ** 2 * math.log(1 + z)
               + (1 / z - 1) ** 2 * math.log(1 - z))
        rhs = -sum(z ** (2 * k) / (k * (k + 1) * (2 * k + 1)) for k in range(1, 300))
        ok = ok and abs(lhs - rhs) < 1e-10
    ok = ok and abs(F.m_series(1.0) - (3 - 4 * math.log(2))) < 1e-10
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
