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

enumerate and constants print CSV by default, bounds and biane JSON; --format
csv or --format json picks either.  CSV string fields, such as partitions, are
quoted; enumerate, bounds and biane end their CSV with one # line that carries
the summary.

Exit codes: 0 success, 1 verification failure (including an ArithmeticError
such as an unconverged quadrature), 2 usage error.  All randomized
commands are bit-reproducible for a fixed seed regardless of scheduling.

verify-all chains the identity families of ytensor.checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain

import numpy as np

from . import checks, exact, functionals, rsk, shape
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
# n above which dims and sample --measure plancherel are refused; both grow
# faster than n.  One Plancherel sample took 0.15 s at n = 1e4, 5.5 s at 1e5
# and 47 s at 3e5 (its per-letter bisect loop grows like n**1.5).  On seed-0
# samples at c = 1 (2 cores), dims took 0.10-0.16 s at n = 1e4, 1.1-1.5 s at
# 3e4 and 16-20 s at 1e5 while each measure rebuilt the hook product, and
# 0.09-0.12 s, 0.8-1.1 s and 14-16 s with one exact record per call.  What is
# left is arithmetic on n!-sized integers: at 3e4 the Decimal printing takes
# ~0.4 s and the Plancherel Fraction dim V / (n! / dim V) ~0.15 s (0.27-0.32 s
# as (dim V)^2 / n!); at 1e5 the printing takes ~5.3 s, the Plancherel
# Fraction 1.9-2.0 s (3.5-3.8 s squared), exact_dims ~1.8 s and the
# Schur-Weyl Fraction ~0.8 s, and dims ~9.9 s in all.  At this cap dims
# takes less than the 13-16 s of a Schur-Weyl run at SAMPLING_CAP.
CELL_LOOP_CAP = 10 ** 5


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
        if self.c is not None:
            shape._require_c(self.c, positive=True)
        if self.n > SAMPLING_CAP:
            raise ValueError(f"n exceeds the sampling cap {SAMPLING_CAP}")

    @property
    def resolved_N(self) -> int:
        if self.N is not None:
            return self.N
        ratio = math.sqrt(self.n) / self.c
        if not math.isfinite(ratio) or round(ratio) >= 1 << 63:  # the sampler's bound on N
            raise ValueError("c too small for this n (N = round(sqrt(n)/c) reaches 2**63)")
        N = round(ratio)
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

    The integers are printed through Decimal, which has no counterpart of
    Python's int-to-string digit limit (4300 digits; n! passes it at n = 1749).
    """
    if lam.n > CELL_LOOP_CAP:
        raise ValueError(f"n exceeds the cell loop cap {CELL_LOOP_CAP}")
    d = exact.exact_dims(lam, N)
    pl, sw = d.plancherel.value, d.schur_weyl.value
    lines = [
        f"partition: {lam}",
        f"n: {lam.n}",
        f"N: {N}",
        f"dim_sym: {Decimal(d.dim_sym)}",
        f"dim_gl: {Decimal(d.dim_gl)}",
        f"dim_iso: {Decimal(d.dim_iso)}",
        f"plancherel: {Decimal(pl.numerator)}/{Decimal(pl.denominator)}",
        f"schur_weyl: {Decimal(sw.numerator)}/{Decimal(sw.denominator)}",
    ]
    return "\n".join(lines) + "\n"


def _csv_table(columns: list[str], rows) -> str:
    """A plain header line, then one line per row with every string field quoted."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
        m = d.schur_weyl.value
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
        text = _csv_table(["partition", "dim_sym", "dim_gl", "dim_iso", "measure_num",
                           "measure_den"], (r.values() for r in rows))
        text += f"# sum dim_iso = {total}, N^n = {N ** n}, {'pass' if passed else 'FAIL'}\n"
    return text, passed


def cmd_sample(cfg: ExperimentConfig, measure: str = "schur-weyl") -> str:
    """Dump of sampled diagrams, one per line after a parameter header."""
    if measure == "schur-weyl":
        N = cfg.resolved_N
        samples = rsk.sample_schur_weyl(cfg.n, N, cfg.seed, cfg.samples)
        return rsk.sample_dump(samples, cfg.n, N, cfg.seed)
    if measure == "plancherel":
        if cfg.n > CELL_LOOP_CAP:
            raise ValueError(f"n exceeds the cell loop cap {CELL_LOOP_CAP}")
        samples = rsk.sample_plancherel(cfg.n, cfg.seed, cfg.samples)
        return rsk.sample_dump(samples, cfg.n, None, cfg.seed)
    raise ValueError(f"unknown measure {measure!r}")


def _sampled(cfg: ExperimentConfig, column: str, record) -> ExperimentResult:
    """One record per sampled diagram, ``trial`` first, then the fields that
    ``record(lam)`` returns; the summary is ``summarize`` of ``column``."""
    samples = rsk.sample_schur_weyl(cfg.n, cfg.resolved_N, cfg.seed, cfg.samples)
    records = [{"trial": trial, **record(lam)} for trial, lam in enumerate(samples)]
    return ExperimentResult(records, summarize([r[column] for r in records]))


def cmd_bounds(cfg: ExperimentConfig, slack: float = 0.05) -> ExperimentResult:
    """Sample -ln P / sqrt(n) and compare with the (alpha_c - slack, beta) window."""
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    N = cfg.resolved_N
    c_n = cfg.c_n
    alpha = functionals.alpha_constant(c_n)
    beta = functionals.beta_constant()

    def record(lam):
        v = float(exact.neg_log_measure_scaled(lam, N))
        return {"partition": str(lam), "neg_log_p_scaled": v,
                "above_alpha": v > alpha - slack, "below_beta": v < beta}

    res = _sampled(cfg, "neg_log_p_scaled", record)
    inside = [r["above_alpha"] and r["below_beta"] for r in res.records]
    res.summary.update({"alpha_c": alpha, "beta": beta, "slack": slack, "c_n": c_n, "N": N,
                        "fraction_inside": float(np.mean(inside))})
    res.passed = all(inside)
    return res


def _sup_distance(prof, c: float) -> float:
    """sup |L - Omega_c|, exactly: the largest |L - Omega_c| at the profile's corners.

    Between neighbouring corners, and on both rays beyond the ends, where
    L - Omega_c tends to 0, L' = +-1 and |Omega_c'| <= 1, so L - Omega_c is
    monotone there and its extremes lie at the corners.
    """
    cx, cy = prof.corners
    return float(np.max(np.abs(cy - shape.omega_c(c, cx))))


def cmd_biane(cfg: ExperimentConfig) -> ExperimentResult:
    """Sup-distance of sampled (rescaled) profiles to the limit shape Omega_c."""
    c_n = cfg.c_n
    res = _sampled(cfg, "sup_distance",
                   lambda lam: {"sup_distance": _sup_distance(profile(lam), c_n)})
    res.summary.update({"c_n": c_n, "N": cfg.resolved_N, "n": cfg.n})
    return res


def cmd_constants(c_grid: list[float], fmt: str = "csv") -> str:
    """Table of the bound constants alpha_c and beta over a grid of c."""
    beta = functionals.beta_constant()
    rows = [{"c": c, "alpha_c": functionals.alpha_constant(c), "beta": beta}
            for c in c_grid]
    if fmt == "json":
        return json.dumps(rows, indent=2)
    return _csv_table(["c", "alpha_c", "beta"], (r.values() for r in rows))


def cmd_emit_shape(c: float, step: float = 0.01) -> str:
    """CSV of Omega_c and its derivative on a uniform grid over the support +- 0.5."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")
    lo, hi = shape.shape_support(c)
    points = (hi - lo + 1.0) / step
    if not points <= SHAPE_GRID_CAP:  # also rejects a NaN count
        raise ValueError(f"the grid exceeds the shape grid cap {SHAPE_GRID_CAP} points")
    s = np.arange(lo - 0.5, hi + 0.5 + step / 2, step)
    return _csv_table(["s", "omega_c", "omega_c_prime"],
                      zip(s.tolist(), shape.omega_c(c, s).tolist(),
                          shape.omega_c_prime(c, s).tolist()))


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def cmd_verify_all(c_grid: tuple[float, ...] = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0),
                   seed: int = 0) -> dict:
    """Run every identity family once and return the JSON-ready report.

    The coverage manifest lists which identities were exercised; tests assert
    it is complete.  Deterministic: fixed seed, fixed evaluation order.
    """
    records, cov = checks.run_checks(chain(
        checks.sum_rules(), checks.measure_routes(), checks.chi_square(seed=seed),
        checks.decomposition(seed=seed + 1), checks.variational_identity(seed=seed + 2),
        checks.minimizer_gap(), checks.gap_positivity(seed=seed + 3),
        checks.penalty_nonnegative(), checks.lemmas(c_grid),
        checks.sobolev_routes(), checks.derivatives(), checks.constants_and_series(),
        checks.hat_inequality(), checks.partition_function()))
    passed = all(ch["pass"] for ch in records)
    return {"checks": records, "coverage": sorted(cov), "passed": passed,
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
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", default=None, help="key=value config file")
    files.add_argument("--out", default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--n", type=int, required=True)
    sampling.add_argument("--N", type=int, default=None)
    sampling.add_argument("--c", type=float, default=None)
    sampling.add_argument("--samples", type=int, default=1)
    sampling.add_argument("--seed", type=int, default=0)

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=[files, *parents])

    sp = command("dims", "exact dimensions of one diagram")
    sp.add_argument("--lam", required=True, help='partition, e.g. "4,2,1"')
    sp.add_argument("--N", type=int, required=True)

    sp = command("enumerate", "all diagrams of Y_N^n with measures", fmt)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)

    sp = command("sample", "dump random diagrams", sampling)
    sp.add_argument("--measure", choices=["schur-weyl", "plancherel"],
                    default="schur-weyl")

    sp = command("bounds", "-ln P / sqrt(n) window statistics", fmt, sampling)
    sp.add_argument("--slack", type=float, default=0.05)

    command("biane", "sup-distance to the limit shape", fmt, sampling)

    sp = command("constants", "alpha_c and beta table", fmt)
    sp.add_argument("--c-grid", default="0,0.5,1,2", help="comma-separated c values")

    sp = command("emit-shape", "limit shape table")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--step", type=float, default=0.01)

    sp = command("verify-all", "run every identity check")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _result_text(res: ExperimentResult, fmt: str | None) -> str:
    """The result as JSON, or as CSV records and a last # line with the summary."""
    if fmt == "csv":
        tail = {**res.summary, "passed": res.passed}
        return (_csv_table(list(res.records[0]), (r.values() for r in res.records))
                + "# " + ", ".join(f"{k}={v!r}" for k, v in tail.items()) + "\n")
    return json.dumps({"records": res.records, "summary": res.summary, "passed": res.passed},
                      indent=2, sort_keys=True) + "\n"


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
        passed = True
        if args.command == "dims":
            text = cmd_dims(Partition.parse(args.lam), args.N)
        elif args.command == "enumerate":
            text, passed = cmd_enumerate(args.n, args.N, args.fmt or "csv")
        elif args.command == "sample":
            if args.measure == "plancherel" and args.N is None and args.c is None:
                args.N = 1  # the Plancherel sampler has no alphabet; N goes unused
            text = cmd_sample(_experiment_config(args), args.measure)
        elif args.command == "bounds":
            res = cmd_bounds(_experiment_config(args), slack=args.slack)
            text, passed = _result_text(res, args.fmt), res.passed
        elif args.command == "biane":  # reports distances and verifies nothing
            text = _result_text(cmd_biane(_experiment_config(args)), args.fmt)
        elif args.command == "constants":
            grid = [float(x) for x in args.c_grid.split(",") if x.strip()]
            text = cmd_constants(grid, args.fmt or "csv")
        elif args.command == "emit-shape":
            text = cmd_emit_shape(args.c, step=args.step)
        else:  # verify-all: the subcommand is required, so no other value gets here
            report = cmd_verify_all(seed=args.seed)
            text, passed = json.dumps(report, indent=2, sort_keys=True) + "\n", report["passed"]
        _emit(text, args.out)
        return 0 if passed else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a non-integral quotient, unconverged quadrature, RSK breach
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
