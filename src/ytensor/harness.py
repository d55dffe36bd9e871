"""Command-line harness: deterministic experiments and verification suites.

Subcommands:
    dims        exact dimensions and measures of one diagram
    enumerate   all diagrams of Y_N^n with dimensions; checks the N^n sum rule
    sample      dump random diagrams (Schur-Weyl or Plancherel)
    bounds      -ln P / sqrt(n) statistics against the (alpha_c, beta) window
    biane       sup-distance of sampled profiles to the limit shape Omega_c
    constants   table of (c, alpha_c, beta)
    emit-shape  CSV table of Omega_c and its derivative on a grid
    verify-all  run every identity check and emit a JSON report

Exit codes: 0 success, 1 verification failure (including an ArithmeticError
such as an unconverged quadrature), 2 usage error.  All randomized
commands are bit-reproducible for a fixed seed regardless of scheduling.

verify-all chains the identity families sum_rules, measure_routes,
chi_square, decomposition, variational_identity, minimizer_gap,
gap_positivity, lemmas, sobolev_routes, derivatives, constants_and_series
and hat_inequality, plus p(100).  Each family takes its sizes and seed as
parameters; the acceptance tests run the same families at larger sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import mpmath
import numpy as np

from . import exact, functionals, rsk, shape
from .diagrams import Partition, profile

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "cmd_dims",
    "cmd_enumerate",
    "cmd_sample",
    "cmd_bounds",
    "cmd_biane",
    "cmd_constants",
    "cmd_emit_shape",
    "cmd_verify_all",
    "summarize",
    "main",
]

ENUMERATION_CAP = 40
SHAPE_GRID_CAP = 10 ** 6
SAMPLING_CAP = 10 ** 6
BIANE_GRID_STEP = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one randomized experiment in the n, N -> infinity regime.

    Exactly one of N or c is given; when c is given, N = round(sqrt(n)/c) and
    the realized ratio c_n = sqrt(n)/N is what enters every formula.
    """

    n: int
    N: int | None = None
    c: float | None = None
    samples: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.N is None) == (self.c is None):
            raise ValueError("exactly one of N or c must be given")
        if self.n < 1 or self.samples < 1:
            raise ValueError("n and samples must be positive")
        if self.N is not None and self.N < 1:
            raise ValueError("N must be positive")
        if self.c is not None and not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be finite and positive")
        if self.n > SAMPLING_CAP:
            raise ValueError(f"n exceeds the sampling cap {SAMPLING_CAP}")

    @property
    def resolved_N(self) -> int:
        if self.N is not None:
            return self.N
        N = round(math.sqrt(self.n) / self.c)
        if N < 1:
            raise ValueError("c too large for this n (N rounds to zero)")
        return N

    @property
    def c_n(self) -> float:
        return math.sqrt(self.n) / self.resolved_N


@dataclass
class ExperimentResult:
    """Per-sample records plus summary statistics over one numeric column."""

    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def to_json(self) -> str:
        return json.dumps(
            {"records": self.records, "summary": self.summary, "passed": self.passed},
            indent=2, sort_keys=True,
        )


def summarize(values: list[float]) -> dict:
    """min/max/median/mean/stderr of a sample; recomputable from the records."""
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return {
        "count": len(arr),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "median": float(np.median(arr)),
        "mean": float(arr.mean()),
        "stderr": stderr,
    }


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_dims(lam: Partition, N: int) -> str:
    """Text report of exact dimensions and measures of one diagram.

    Python's int-to-string digit limit (4300 digits; n! passes it at n = 1749) is
    lifted while the report is formatted and restored afterwards.
    """
    d = exact.exact_dims(lam, N)
    pl = exact.plancherel(lam).value
    sw = exact.schur_weyl_measure(lam, N).value
    # Python >= 3.10.7 has the limit; 0 means none is set
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        lines = [
            f"partition: {lam}",
            f"n: {lam.n}",
            f"N: {N}",
            f"dim_sym: {d.dim_sym}",
            f"dim_gl: {d.dim_gl}",
            f"dim_iso: {d.dim_iso}",
            f"plancherel: {pl.numerator}/{pl.denominator}",
            f"schur_weyl: {sw.numerator}/{sw.denominator}",
        ]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return "\n".join(lines) + "\n"


def cmd_enumerate(n: int, N: int, fmt: str = "csv") -> tuple[str, bool]:
    """Enumeration table plus the sum-rule verification line.

    Returns (text, passed); passed is the exact identity sum dim_iso = N^n.
    """
    if n > ENUMERATION_CAP:
        raise ValueError(f"n exceeds the enumeration cap {ENUMERATION_CAP}")
    rows = []
    total = 0
    for lam in exact.enumerate_diagrams(n, N):
        d = exact.exact_dims(lam, N)
        m = exact.schur_weyl_measure(lam, N).value
        total += d.dim_iso
        rows.append({
            "partition": str(lam), "dim_sym": d.dim_sym, "dim_gl": d.dim_gl,
            "dim_iso": d.dim_iso, "measure_num": m.numerator, "measure_den": m.denominator,
        })
    passed = total == N ** n
    if fmt == "json":
        text = json.dumps({"rows": rows, "sum_dim_iso": total,
                           "expected": N ** n, "passed": passed}, indent=2)
    else:
        lines = ["partition,dim_sym,dim_gl,dim_iso,measure_num,measure_den"]
        lines += [f'"{r["partition"]}",{r["dim_sym"]},{r["dim_gl"]},{r["dim_iso"]},'
                  f'{r["measure_num"]},{r["measure_den"]}' for r in rows]
        lines.append(f"# sum dim_iso = {total}, N^n = {N ** n}, "
                     f"{'pass' if passed else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    return text, passed


def cmd_sample(cfg: ExperimentConfig, measure: str = "schur-weyl") -> str:
    """Dump of sampled diagrams, one per line after a parameter header."""
    if measure == "schur-weyl":
        N = cfg.resolved_N
        samples = rsk.sample_schur_weyl(cfg.n, N, cfg.seed, cfg.samples)
        return rsk.sample_dump(samples, cfg.n, N, cfg.seed)
    if measure == "plancherel":
        samples = rsk.sample_plancherel(cfg.n, cfg.seed, cfg.samples)
        return rsk.sample_dump(samples, cfg.n, None, cfg.seed)
    raise ValueError(f"unknown measure {measure!r}")


def cmd_bounds(cfg: ExperimentConfig, slack: float = 0.05) -> ExperimentResult:
    """Sample -ln P / sqrt(n) and compare with the (alpha_c - slack, beta) window."""
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    N = cfg.resolved_N
    c_n = cfg.c_n
    alpha = functionals.alpha_constant(c_n)
    beta = functionals.beta_constant()
    samples = rsk.sample_schur_weyl(cfg.n, N, cfg.seed, cfg.samples)
    res = ExperimentResult()
    values = []
    for trial, lam in enumerate(samples):
        v = float(exact.neg_log_measure_scaled(lam, N))
        values.append(v)
        res.records.append({
            "trial": trial, "partition": str(lam), "neg_log_p_scaled": v,
            "above_alpha": v > alpha - slack, "below_beta": v < beta,
        })
    res.summary = summarize(values)
    res.summary.update({
        "alpha_c": alpha, "beta": beta, "slack": slack, "c_n": c_n, "N": N,
        "fraction_inside": float(np.mean([r["above_alpha"] and r["below_beta"]
                                          for r in res.records])),
    })
    res.passed = all(r["above_alpha"] and r["below_beta"] for r in res.records)
    return res


def _sup_distance(prof, c: float, grid: np.ndarray, omega_grid: np.ndarray) -> float:
    """sup |L - Omega_c| over a fixed grid plus the profile's own corners."""
    cx, cy = prof.corners
    return max(float(np.max(np.abs(prof.evaluate(grid) - omega_grid))),
               float(np.max(np.abs(cy - shape.omega_c(c, cx)))))


def cmd_biane(cfg: ExperimentConfig) -> ExperimentResult:
    """Sup-distance of sampled (rescaled) profiles to the limit shape Omega_c."""
    N = cfg.resolved_N
    c_n = cfg.c_n
    lo, hi = shape.shape_support(c_n)
    # The grid must cover both supports; profiles of n cells stay within
    # |X| <= max(n/(2 sqrt n), N/(2 sqrt n)) but practically near the shape.
    span = max(hi, 1.0) + 1.0
    grid = np.arange(min(lo, -span), span, BIANE_GRID_STEP)
    omega_grid = shape.omega_c(c_n, grid)
    samples = rsk.sample_schur_weyl(cfg.n, N, cfg.seed, cfg.samples)
    res = ExperimentResult()
    values = []
    for trial, lam in enumerate(samples):
        d = _sup_distance(profile(lam), c_n, grid, omega_grid)
        values.append(d)
        res.records.append({"trial": trial, "sup_distance": d})
    res.summary = summarize(values)
    res.summary.update({"c_n": c_n, "N": N, "n": cfg.n, "grid_step": BIANE_GRID_STEP})
    return res


def cmd_constants(c_grid: list[float], fmt: str = "csv") -> str:
    """Table of the bound constants alpha_c and beta over a grid of c."""
    beta = functionals.beta_constant()
    rows = [{"c": c, "alpha_c": functionals.alpha_constant(c), "beta": beta}
            for c in c_grid]
    if fmt == "json":
        return json.dumps(rows, indent=2)
    lines = ["c,alpha_c,beta"]
    lines += [f'{r["c"]!r},{r["alpha_c"]!r},{r["beta"]!r}' for r in rows]
    return "\n".join(lines) + "\n"


def cmd_emit_shape(c: float, step: float = 0.01) -> str:
    """CSV of Omega_c and its derivative on a uniform grid over the support +- 0.5."""
    if not step > 0.0:
        raise ValueError("step must be positive")
    lo, hi = shape.shape_support(c)
    points = (hi - lo + 1.0) / step
    if not points <= SHAPE_GRID_CAP:  # also rejects a NaN count
        raise ValueError(f"the grid exceeds the shape grid cap {SHAPE_GRID_CAP} points")
    return shape.emit_shape_csv(c, np.arange(lo - 0.5, hi + 0.5 + step / 2, step))


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def run_checks(checks) -> tuple[list[dict], set[str]]:
    """The report records and coverage tags of (test, params, lhs, rhs, tol, tags) tuples."""
    records: list[dict] = []
    cov: set[str] = set()
    for test, params, lhs, rhs, tol, tags in checks:
        err = abs(lhs - rhs)
        records.append({"test": test, "params": params, "lhs": lhs, "rhs": rhs,
                        "abs_err": err, "tol": tol, "pass": bool(err <= tol)})
        cov.update(tags)
    return records, cov


# Identity families: each yields one (test, params, lhs, rhs, tol, tags) tuple per
# check.  The defaults are verify-all's sizes; the acceptance tests pass larger ones.


def sum_rules(tensor=((3, 2), (5, 3), (6, 4)), plancherel=(4, 8)):
    """sum dim_iso = N^n over Y_N^n and sum dim_sym^2 = n!."""
    for n, N in tensor:
        total = sum(exact.dim_iso(lam, N) for lam in exact.enumerate_diagrams(n, N))
        yield ("sum_dim_iso", {"n": n, "N": N}, float(total), float(N ** n), 0.0,
               ("sum-rule-tensor",))
    for n in plancherel:
        total = sum(exact.dim_sym(lam) ** 2 for lam in exact.enumerate_diagrams(n, n))
        yield ("sum_dim_sym_sq", {"n": n}, float(total), float(math.factorial(n)), 0.0,
               ("sum-rule-plancherel",))


def measure_routes():
    """The Schur-Weyl measure by hooks and by the content product, as rationals."""
    for n, N in ((5, 3), (6, 2)):
        for lam in exact.enumerate_diagrams(n, N):
            yield ("measure_two_routes", {"lam": str(lam), "N": N},
                   float(exact.schur_weyl_measure(lam, N).value),
                   float(exact.schur_weyl_via_contents(lam, N)), 0.0,
                   ("measure-content-product",))


def chi_square_sf(chisq: float, dof: int) -> float:
    """P(X > chisq) for X chi-square with dof degrees of freedom: Q(dof/2, chisq/2)."""
    return float(mpmath.gammainc(dof / 2, chisq / 2, regularized=True))


def chi_square(sizes=((4, 2),), count=20000, seed=0):
    """Chi-square fit of count RSK samples per (n, N); passes when p > 1e-3."""
    for n, N in sizes:
        observed = Counter(rsk.sample_schur_weyl(n, N, seed, count))
        chisq = 0.0
        dof = -1
        for lam in exact.enumerate_diagrams(n, N):
            e = float(exact.schur_weyl_measure(lam, N).value) * count
            chisq += (observed[lam] - e) ** 2 / e
            dof += 1
        pval = chi_square_sf(chisq, dof)
        yield ("sampler_chi_square", {"n": n, "N": N, "count": count, "chisq": chisq,
                                      "dof": dof},
               pval, pval if pval > 1e-3 else -1.0, 0.0, ("rsk-sampler",))


def decomposition(n=64, N=8, count=5, seed=1):
    """eps_1 = 1, and the residual eps_n is the same on count sampled diagrams."""
    yield ("eps_1", {}, functionals.prop31_decompose(Partition((1,)), 1).residual, 1.0,
           1e-12, ("decomposition",))
    res = [functionals.prop31_decompose(lam, N).residual
           for lam in rsk.sample_schur_weyl(n, N, seed, count)]
    yield ("residual_lambda_independent", {"n": n, "N": N}, max(res), min(res), 1e-9,
           ("decomposition", "eps-independence"))


def minimizer_gap(cs=(0.5, 2.0)):
    """theta - rho vanishes at Omega_c."""
    for c in cs:
        yield ("minimizer_gap", {"c": c}, functionals.theta_shape(c),
               functionals.rho(functionals.shape_curve(c), c), 1e-6,
               ("minimizer", "hook-integral-quadrature"))


def variational_identity(n=100, N=12, count=6, keep=2, seed=2):
    """The variational identity on the first keep of count samples with fewer than N rows."""
    kept = [lam for lam in rsk.sample_schur_weyl(n, N, seed, count) if lam.height < N]
    for lam in kept[:keep]:
        lhs, rhs = functionals.prop41_identity(lam, N)
        yield ("variational_identity", {"n": n, "N": N, "lam": str(lam)}, lhs, rhs, 1e-6,
               ("variational-identity",))


def gap_positivity(n=100, N=10, count=10, seed=3):
    """theta - rho >= -1e-9 on count sampled profiles."""
    c_n = math.sqrt(n) / N
    profs = [profile(lam) for lam in rsk.sample_schur_weyl(n, N, seed, count)]
    worst = min(functionals.theta_profile(p) - functionals.rho(p, c_n) for p in profs)
    yield "gap_nonnegative", {"n": n, "N": N}, min(worst, 0.0), 0.0, 1e-9, ("gap-positivity",)


def lemmas(c_grid):
    """Lemmas A, I, F3 and intIOmega: quadrature against closed form at each c."""
    for c in c_grid:
        a, b = functionals.default_window(c)
        yield "lemma_A", {"c": c}, *functionals.lemma_A(c), 1e-7, ("lemma-A",)
        yield ("lemma_I", {"c": c}, *functionals.lemma_I(c, 0.5 * c + 1.2, a, b), 1e-7,
               ("lemma-I",))
        yield "lemma_F3", {"c": c}, *functionals.lemma_F3(c, 0.3), 1e-7, ("lemma-F3",)
        yield ("lemma_intIOmega", {"c": c}, *functionals.lemma_intIOmega(c, a, b), 1e-6,
               ("lemma-intIOmega",))


def sobolev_routes():
    """The nested difference quotient against the closed-form Sobolev norm of L - Omega_1."""
    f = functionals.profile_minus_shape(profile(Partition((1,))), 1.0)
    yield ("sobolev_routes", {"lam": "1", "c": 1.0}, functionals._sobolev_quotient(f),
           functionals.sobolev_half_sq(f), 1e-6, ("sobolev-half-norm",))


def derivatives(cs=(0.5, 2.0), zs=(1.7,), ss=(0.3,)):
    """H', H'', J' = H at each z and Omega', G' at each s against central differences."""
    h = 1e-6

    def fd(fn, c, x):
        return (fn(c, x + h) - fn(c, x - h)) / (2 * h)

    for c in cs:
        for z in zs:
            yield ("H_prime_fd", {"c": c, "z": z}, shape.H_tilde_prime(c, z),
                   fd(shape.H_tilde, c, z), 1e-6, ("H-function",))
            yield ("H_second_fd", {"c": c, "z": z}, shape.H_tilde_second(c, z),
                   fd(shape.H_tilde_prime, c, z), 1e-5, ("H-function",))
            yield ("J_prime_is_H", {"c": c, "z": z}, fd(shape.J_tilde, c, z),
                   shape.H_tilde(c, z), 1e-6, ("J-function",))
        for s in ss:
            yield ("omega_prime_fd", {"c": c, "s": s}, shape.omega_c_prime(c, s),
                   fd(shape.omega_c, c, s), 1e-6, ("limit-shape",))
            yield ("G_prime_fd", {"c": c, "s": s}, -math.log(abs(1 + 2 * c * s)),
                   fd(shape.G, c, s), 1e-6, ("G-function",))


def constants_and_series(zs=(0.3,)):
    """alpha_0, beta and m(1) in closed form, and the power-series identity at each z."""
    yield ("alpha_0_closed", {}, functionals.alpha_constant(0.0),
           2 / math.pi - 4 / math.pi ** 2, 1e-10, ("alpha-constant",))
    yield ("beta_value", {}, functionals.beta_constant(), 2 * math.pi / math.sqrt(6),
           1e-14, ("beta-constant",))
    yield ("m_at_1", {}, functionals.m_series(1.0), 3 - 4 * math.log(2), 1e-12,
           ("m-series",))
    for z in zs:
        lhs = -3 + (1 + 1 / z) ** 2 * math.log(1 + z) + (1 / z - 1) ** 2 * math.log(1 - z)
        rhs = -sum(z ** (2 * k) / (k * (k + 1) * (2 * k + 1)) for k in range(1, 100))
        yield "power_series_identity", {"z": z}, lhs, rhs, 1e-10, ("power-series-identity",)


def hat_inequality():
    """theta_hat >= rho_hat on every diagram of Y_4^8."""
    n, N = 8, 4
    bad = sum(1 for lam in exact.enumerate_diagrams(n, N)
              if functionals.theta_hat(lam) < functionals.rho_hat(lam, N) - 1e-12)
    yield "hat_inequality", {"n": n, "N": N}, float(bad), 0.0, 0.0, ("hat-inequality",)


def cmd_verify_all(c_grid: tuple[float, ...] = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0),
                   seed: int = 0) -> dict:
    """Run every identity family once and return the JSON-ready report.

    The coverage manifest lists which identities were exercised; tests assert
    it is complete.  Deterministic: fixed seed, fixed evaluation order.
    """
    checks, cov = run_checks(chain(
        sum_rules(), measure_routes(), chi_square(seed=seed),
        decomposition(seed=seed + 1), variational_identity(seed=seed + 2),
        minimizer_gap(), gap_positivity(seed=seed + 3), lemmas(c_grid), sobolev_routes(),
        derivatives(), constants_and_series(), hat_inequality(),
        (("partition_count_100", {}, float(exact.partition_count(n)), 190569292.0, 0.0,
          ("partition-function",)) for n in (100,))))
    passed = all(ch["pass"] for ch in checks)
    return {"checks": checks, "coverage": sorted(cov), "passed": passed,
            "seed": seed, "c_grid": list(c_grid)}


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict:
    """Flat key=value config file; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _config_path(argv: list[str]) -> str | None:
    """The --config value in argv, read before the full parse.

    The file must be spliced in before argparse checks the subcommand's
    required flags, so that it can supply them.  Abbreviations are off:
    ``--c`` is a flag of its own, not short for ``--config``.  A missing
    value reads as None here and is reported by the full parse.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config", nargs="?")
    return pre.parse_known_args(argv)[0].config


def _with_config(argv: list[str], path: str) -> list[str]:
    """argv with the config file's keys spliced in as --key=value flags.

    They go right after the subcommand, so argparse types and checks them like
    any flag, rejects unknown keys, and a flag given on the command line wins.
    """
    flags = [f"--{key}={val}" for key, val in _read_config(path).items()]
    return argv[:1] + flags + argv[1:]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ytensor",
                                description="isotypic-component dimension toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n=False, N=False, c=False, samples=False, seed=False):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", default=None)
        if n:
            sp.add_argument("--n", type=int, required=True)
        if N:
            sp.add_argument("--N", type=int, default=None)
        if c:
            sp.add_argument("--c", type=float, default=None)
        if samples:
            sp.add_argument("--samples", type=int, default=1)
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("dims", help="exact dimensions of one diagram")
    sp.add_argument("--lam", required=True, help='partition, e.g. "4,2,1"')
    sp.add_argument("--N", type=int, required=True)
    common(sp)

    sp = sub.add_parser("enumerate", help="all diagrams of Y_N^n with measures")
    sp.add_argument("--N", type=int, required=True)
    common(sp, n=True)
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)

    sp = sub.add_parser("sample", help="dump random diagrams")
    common(sp, n=True, N=True, c=True, samples=True, seed=True)
    sp.add_argument("--measure", choices=["schur-weyl", "plancherel"],
                    default="schur-weyl")

    sp = sub.add_parser("bounds", help="-ln P / sqrt(n) window statistics")
    common(sp, n=True, N=True, c=True, samples=True, seed=True)
    sp.add_argument("--slack", type=float, default=0.05)
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)

    sp = sub.add_parser("biane", help="sup-distance to the limit shape")
    common(sp, n=True, N=True, c=True, samples=True, seed=True)
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)

    sp = sub.add_parser("constants", help="alpha_c and beta table")
    sp.add_argument("--c-grid", default="0,0.5,1,2",
                    help="comma-separated c values")
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("emit-shape", help="limit shape table")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify-all", help="run every identity check")
    common(sp, seed=True)
    return p


def _result_text(res: ExperimentResult, fmt: str | None) -> str:
    if fmt == "csv":
        if not res.records:
            return ""
        cols = list(res.records[0].keys())
        lines = [",".join(cols)]
        for r in res.records:
            lines.append(",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k])
                                  for k in cols))
        return "\n".join(lines) + "\n"
    return res.to_json() + "\n"


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(n=args.n, N=args.N, c=args.c, samples=args.samples,
                            seed=args.seed)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        config = _config_path(argv)
        args = parser.parse_args(_with_config(argv, config) if config else argv)
        if args.config != config:
            parser.error("--config must be spelled out in full")
        if args.command == "dims":
            _emit(cmd_dims(Partition.parse(args.lam), args.N), args.out)
            return 0
        if args.command == "enumerate":
            text, passed = cmd_enumerate(args.n, args.N, args.fmt or "csv")
            _emit(text, args.out)
            return 0 if passed else 1
        if args.command == "sample":
            if args.measure == "plancherel" and args.N is None and args.c is None:
                args.N = 1  # the Plancherel sampler has no alphabet; N goes unused
            _emit(cmd_sample(_experiment_config(args), args.measure), args.out)
            return 0
        if args.command == "bounds":
            res = cmd_bounds(_experiment_config(args), slack=args.slack)
            _emit(_result_text(res, args.fmt), args.out)
            return 0 if res.passed else 1
        if args.command == "biane":
            res = cmd_biane(_experiment_config(args))
            _emit(_result_text(res, args.fmt), args.out)
            return 0
        if args.command == "constants":
            grid = [float(x) for x in args.c_grid.split(",") if x.strip()]
            _emit(cmd_constants(grid, args.fmt or "csv"), args.out)
            return 0
        if args.command == "emit-shape":
            _emit(cmd_emit_shape(args.c, step=args.step), args.out)
            return 0
        if args.command == "verify-all":
            report = cmd_verify_all(seed=args.seed)
            _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
            return 0 if report["passed"] else 1
        parser.error(f"unknown command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a non-integral quotient, unconverged quadrature, RSK breach
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
