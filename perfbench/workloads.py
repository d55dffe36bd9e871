"""The benchmark's workloads: the jobs of one pass and the checks on their output.

A job is one call into ytensor's public functions.  Its check runs after the
pass has been timed and returns (attempted, failed, items, problems): the
number of checked results, how many of them failed, the trials, samples or
checks the job completed, and a description of each failure.

Under DEFAULT_SEED at full size, outputs are also compared with the values
recorded in expected.json: the sampled partitions, trial by trial, through
a digest, which enforces the bit-exact (seed, trial) contract, and floats
at the tolerances the test suite uses.  On other seeds only the statistical
and tolerance checks apply.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy import stats

from ytensor import exact, harness, rsk

DEFAULT_SEED = 0

# Input sizes.  "full" is what BENCHMARK.json's workloads run; "toy" keeps
# the same code paths at sizes that finish in seconds, for selftest.py.
SIZES = {
    "full": {"chisq_trials": 20_000, "exp_n": 30_000, "exp_samples": 2,
             "sup_limit": 0.1, "verify_c_grid": None},
    "toy": {"chisq_trials": 2_000, "exp_n": 400, "exp_samples": 2,
            "sup_limit": 0.5, "verify_c_grid": (1.0,)},
}

CHISQ_CASES = ((4, 2), (5, 3), (6, 3))
# Per (n, N).  Smaller than acceptance 2's 1e-3 because every seed the
# benchmark is run with is a fresh test: at 1e-6 a correct sampler fails on
# about 3 seeds in a million, while a biased one fails at any seed.
CHISQ_ALPHA = 1e-6
NEG_LOG_REL_TOL = 1e-12  # tests/test_exact.py, neg_log_measure_scaled
SUP_REL_TOL = 1e-6  # pytest.approx default, as tests/test_diagrams.py uses

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int, int, list[str]]]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _verdict(items: int, problems: list[str]) -> tuple[int, int, int, list[str]]:
    return 1, int(bool(problems)), items, problems


def _close(got: list[float], want: list[float], rel: float) -> bool:
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=rel, abs_tol=0.0) for g, w in zip(got, want))


def chisq_small(size: dict, seed: int, expected: dict | None) -> list[Job]:
    """Many tiny RSK trials against the exact Schur-Weyl law (acceptance 2's cases)."""
    trials = size["chisq_trials"]

    def job(n: int, N: int) -> Job:
        key = f"{n},{N}"

        def run():
            shapes = rsk.sample_schur_weyl(n, N, seed, trials)
            observed = Counter(shapes)
            counts, chisq = {}, 0.0
            for lam in exact.enumerate_diagrams(n, N):
                e = float(exact.schur_weyl_measure(lam, N).value) * trials
                counts[str(lam)] = observed.pop(lam, 0)
                chisq += (counts[str(lam)] - e) ** 2 / e
            return {"shapes": shapes, "counts": counts, "outside": sum(observed.values()),
                    "p_value": float(stats.chi2.sf(chisq, len(counts) - 1))}

        def check(out):
            problems = []
            if out["outside"] or sum(out["counts"].values()) != trials:
                problems.append(f"{out['outside']} shapes outside Y_{N}^{n}")
            if not out["p_value"] > CHISQ_ALPHA:
                problems.append(f"chi-square p = {out['p_value']:.3g} <= {CHISQ_ALPHA}")
            if expected and digest([lam.rows for lam in out["shapes"]]) != expected[key]:
                problems.append("sampled shapes differ from the recorded digest")
            return _verdict(trials, problems)

        return Job(f"chisq({key})", run, check)

    return [job(n, N) for n, N in CHISQ_CASES]


def experiments_large(size: dict, seed: int, expected: dict | None) -> list[Job]:
    """bounds and biane at large n: few trials, long RSK rows, n!-sized rationals."""
    cfg = harness.ExperimentConfig(n=size["exp_n"], c=1.0, samples=size["exp_samples"],
                                   seed=seed)

    def check_bounds(res):
        values = [r["neg_log_p_scaled"] for r in res.records]
        problems = []
        if len(values) != cfg.samples or not all(map(math.isfinite, values)):
            problems.append(f"{len(values)} finite values for {cfg.samples} samples")
        if not res.passed:
            problems.append("-ln P / sqrt(n) outside the (alpha_c - slack, beta) window")
        if expected:
            if digest([r["partition"] for r in res.records]) != expected["partitions"]:
                problems.append("sampled partitions differ from the recorded digest")
            if not _close(values, expected["neg_log_p_scaled"], NEG_LOG_REL_TOL):
                problems.append("-ln P / sqrt(n) differs from the recorded values")
        return _verdict(cfg.samples, problems)

    def check_biane(res):
        values = [r["sup_distance"] for r in res.records]
        problems = []
        if len(values) != cfg.samples or not all(0.0 <= v < size["sup_limit"] for v in values):
            problems.append(f"sup distances {values} not all in [0, {size['sup_limit']})")
        if expected and not _close(values, expected["sup_distance"], SUP_REL_TOL):
            problems.append("sup distances differ from the recorded values")
        return _verdict(cfg.samples, problems)

    return [Job("bounds", lambda: harness.cmd_bounds(cfg), check_bounds),
            Job("biane", lambda: harness.cmd_biane(cfg), check_biane)]


def verify_all(size: dict, seed: int, expected: dict | None) -> list[Job]:
    """harness.cmd_verify_all with its default arguments; seed-independent."""
    grid = size["verify_c_grid"]
    kwargs = {} if grid is None else {"c_grid": grid}

    def check(report):
        checks = report["checks"]
        failing = [ch["test"] for ch in checks if not ch["pass"]]
        problems = [f"check {name} failed" for name in failing]
        if not report["passed"] and not failing:
            problems.append("report not passed although every check passed")
        return len(checks), max(len(failing), int(bool(problems))), len(checks), problems

    return [Job("verify-all", lambda: harness.cmd_verify_all(**kwargs), check)]


WORKLOADS = {
    "chisq-small": chisq_small,
    "experiments-large": experiments_large,
    "verify-all": verify_all,
}


def build(workload: str, size_name: str, seed: int) -> list[Job]:
    expected = None
    if size_name == "full" and seed == DEFAULT_SEED:
        expected = EXPECTED.get(workload)
    return WORKLOADS[workload](SIZES[size_name], seed, expected)
