import ast
import csv
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ytensor.diagrams import Partition
from ytensor import checks, harness
from ytensor.harness import ExperimentConfig, main


class TestConfig:
    def test_exactly_one_of_N_or_c(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=100)
        with pytest.raises(ValueError):
            ExperimentConfig(n=100, N=10, c=1.0)

    def test_N_from_c_rounding(self):
        cfg = ExperimentConfig(n=400, c=1.0)
        assert cfg.resolved_N == 20
        assert cfg.c_n == pytest.approx(1.0)
        cfg = ExperimentConfig(n=500, c=1.0)
        assert cfg.resolved_N == 22
        assert cfg.c_n == pytest.approx(math.sqrt(500) / 22)

    def test_rejects_nonpositive_N_and_bad_c(self):
        for kwargs in ({"N": 0}, {"N": -3}, {"c": 0.0}, {"c": -1.0},
                       {"c": math.inf}, {"c": math.nan}):
            with pytest.raises(ValueError):
                ExperimentConfig(n=100, **kwargs)

    def test_sampling_cap(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=10 ** 6 + 1, N=5)


class TestSubcommands:
    def test_dims_output(self, capsys):
        assert main(["dims", "--lam", "2,1", "--N", "2"]) == 0
        out = capsys.readouterr().out
        assert "dim_iso: 4" in out and "schur_weyl: 1/2" in out

    def test_dims_past_the_int_string_limit(self, capsys):
        # the Plancherel denominator 2000! has 5736 digits; Decimal prints it
        # without the int-to-string limit, which cmd_dims must leave as it found it
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["dims", "--lam", "2000", "--N", "2"]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        out = capsys.readouterr().out
        assert "dim_gl: 2001\n" in out
        assert f"plancherel: 1/{Decimal(math.factorial(2000))}\n" in out
        assert f"schur_weyl: 2001/{2 ** 2000}\n" in out

    def test_dims_leaves_the_int_string_limit_alone(self, monkeypatch, capsys):
        def fail(limit):
            raise RuntimeError("cmd_dims must not change the int-to-string limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", fail, raising=False)
        assert main(["dims", "--lam", "2000", "--N", "2"]) == 0
        assert f"plancherel: 1/{Decimal(math.factorial(2000))}\n" in capsys.readouterr().out

    def test_dims_examples(self, capsys):
        main(["dims", "--lam", "3", "--N", "2"])
        assert "dim_iso: 4" in capsys.readouterr().out
        main(["dims", "--lam", "1,1,1", "--N", "2"])
        assert "dim_iso: 0" in capsys.readouterr().out

    def test_enumerate_sum_rule(self):
        text, passed = harness.cmd_enumerate(3, 2)
        assert passed and "sum dim_iso = 8" in text
        text, passed = harness.cmd_enumerate(5, 5)
        assert passed and "N^n = 3125" in text
        text, passed = harness.cmd_enumerate(1, 1)
        assert passed and "sum dim_iso = 1" in text

    def test_enumerate_cap(self):
        assert main(["enumerate", "--n", "99", "--N", "2"]) == 2

    def test_bad_partition_is_usage_error(self):
        assert main(["dims", "--lam", "x", "--N", "2"]) == 2

    def test_sample_deterministic(self, capsys):
        main(["sample", "--n", "30", "--N", "3", "--samples", "2", "--seed", "11"])
        first = capsys.readouterr().out
        main(["sample", "--n", "30", "--N", "3", "--samples", "2", "--seed", "11"])
        assert capsys.readouterr().out == first
        assert first.startswith("# n=30 N=3 seed=11 count=2")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=30\nN=3\nsamples=2\nseed=11\n")
        main(["sample", "--config", str(cfg)])
        from_config = capsys.readouterr().out
        main(["sample", "--n", "30", "--N", "3", "--samples", "2", "--seed", "11"])
        assert capsys.readouterr().out == from_config
        main(["sample", "--config", str(cfg), "--seed", "12"])
        assert capsys.readouterr().out != from_config

    def test_config_sets_flags_with_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=100\nc=1.0\nslack=5.0\nformat=json\n")
        main(["bounds", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["summary"]["slack"] == 5.0

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        dims_cfg = tmp_path / "dims.cfg"
        dims_cfg.write_text("lam=3,1\n")
        assert main(["dims", "--config", str(dims_cfg), "--N", "2"]) == 0
        assert "dim_iso: 9" in capsys.readouterr().out
        shape_cfg = tmp_path / "shape.cfg"
        shape_cfg.write_text("c=1.0\n")
        assert main(["emit-shape", "--config", str(shape_cfg), "--step", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("s,omega_c,omega_c_prime")

    def test_config_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=30\nN=3\nbogus=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_bounds_window_and_summary(self):
        res = harness.cmd_bounds(ExperimentConfig(n=100, c=1.0, samples=20, seed=5))
        assert res.passed
        vals = [r["neg_log_p_scaled"] for r in res.records]
        recomputed = harness.summarize(vals)
        for key in ("min", "max", "median", "mean", "stderr"):
            assert res.summary[key] == recomputed[key]
        assert all(v < res.summary["beta"] for v in vals)

    def test_biane_distances(self):
        res = harness.cmd_biane(ExperimentConfig(n=400, c=1.0, samples=5, seed=1))
        assert all(0 < r["sup_distance"] < 0.5 for r in res.records)
        assert res.summary["count"] == 5

    def test_constants_csv(self, capsys):
        assert main(["constants", "--c-grid", "0,1,2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "c,alpha_c,beta"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        betas = {r[2] for r in rows}
        assert len(betas) == 1
        assert all(r[1] < r[2] for r in rows)

    def test_emit_shape(self, capsys):
        assert main(["emit-shape", "--c", "1.0", "--step", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s,omega_c,omega_c_prime"
        assert len(lines) > 10

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_emit_shape_rejects_nonfinite_c(self, capsys, c):
        assert main(["emit-shape", "--c", c]) == 2
        assert capsys.readouterr().err == f"error: c must be finite, got {c}\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "dims.txt"
        assert main(["dims", "--lam", "2,1", "--N", "2", "--out", str(out)]) == 0
        assert "dim_iso: 4" in out.read_text()

    @pytest.mark.parametrize("argv", [
        ["sample", "--measure", "plancherel"],
        ["bounds", "--c", "1.0"],
        ["emit-shape", "--c", "1.0", "--step", "0"],
        ["emit-shape", "--c", "1.0", "--step", "-0.1"],
        ["sample", "--n", "10", "--N", "2", "--samples", "0"],
        ["sample", "--measure", "plancherel", "--n", "10", "--samples", "0"],
        ["bounds", "--n", "100", "--c", "1.0", "--tol", "1e-6"],
        ["bounds", "--n", "100", "--c", "0"],
        ["biane", "--n", "100", "--c", "0"],
        ["sample", "--n", "100", "--c", "0"],
        ["bounds", "--n", "100", "--N", "0"],
        ["biane", "--n", "100", "--N", "0"],
        ["dims", "--lam", "2,1", "--N", "2", "--conf", "missing.cfg"],
        ["emit-shape", "--c", "1e6", "--step", "1e-3"],
        ["emit-shape", "--c", "1", "--step", "1e-9"],
        ["constants", "--c-grid", "nan,1"],
        ["constants", "--c-grid", "inf"],
        ["bounds", "--n", "100", "--c", "1", "--samples", "3", "--slack", "nan"],
        ["bounds", "--n", "100", "--c", "1", "--samples", "3", "--slack", "inf"],
        ["bounds", "--n", "100", "--c", "1", "--samples", "3", "--slack", "-0.05"],
        ["sample", "--measure", "plancherel", "--n", "100001"],
        ["dims", "--lam", "100001", "--N", "2"],
    ])
    def test_usage_errors_exit_2(self, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2

    @pytest.mark.parametrize("argv, target, message", [
        (["verify-all"], "cmd_verify_all",
         "tanh-sinh did not converge on [-1.0, -0.5] (status -2)"),
        (["dims", "--lam", "2,1", "--N", "2"], "cmd_dims", "quotient is not integral"),
    ])
    def test_arithmetic_error_exits_1(self, monkeypatch, capsys, argv, target, message):
        def fail(*args, **kwargs):
            raise ArithmeticError(message)

        monkeypatch.setattr(harness, target, fail)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_sample_plancherel(self, capsys):
        assert main(["sample", "--measure", "plancherel", "--n", "10", "--samples", "2"]) == 0
        assert capsys.readouterr().out.startswith("# n=10 N=- seed=0 count=2")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "5", "--N", "3"],
        ["constants", "--c-grid", "0,0.5,1,2"],
        ["bounds", "--n", "20", "--N", "3", "--samples", "2", "--format", "csv"],
        ["biane", "--n", "100", "--c", "1", "--samples", "3", "--format", "csv"],
        ["emit-shape", "--c", "1", "--step", "0.5"],
    ])
    def test_csv_rows_match_the_header(self, capsys, argv):
        assert main(argv) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        header, *rows = csv.reader(lines)
        assert rows and all(len(row) == len(header) for row in rows)

    def test_bounds_csv_partitions_parse_back(self, capsys):
        argv = ["bounds", "--n", "20", "--N", "3", "--samples", "2", "--format", "csv"]
        assert main(argv) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        records = harness.cmd_bounds(ExperimentConfig(n=20, N=3, samples=2)).records
        assert [Partition.parse(r["partition"]) for r in rows] == [
            Partition.parse(r["partition"]) for r in records]
        assert all("," in r["partition"] for r in rows)

    @pytest.mark.parametrize("argv, run", [
        (["bounds", "--n", "20", "--N", "3", "--samples", "2", "--format", "csv"],
         lambda: harness.cmd_bounds(ExperimentConfig(n=20, N=3, samples=2))),
        (["bounds", "--n", "20", "--N", "3", "--samples", "4", "--slack", "0", "--format", "csv"],
         lambda: harness.cmd_bounds(ExperimentConfig(n=20, N=3, samples=4), slack=0.0)),
        (["biane", "--n", "100", "--c", "1", "--samples", "3", "--format", "csv"],
         lambda: harness.cmd_biane(ExperimentConfig(n=100, c=1.0, samples=3))),
    ], ids=["bounds", "bounds-failing", "biane"])
    def test_csv_ends_with_the_summary(self, capsys, argv, run):
        res = run()
        assert main(argv) == (0 if res.passed else 1)
        lines = capsys.readouterr().out.splitlines()
        assert [ln.startswith("#") for ln in lines] == [False] * (len(lines) - 1) + [True]
        items = dict(item.split("=", 1) for item in lines[-1].removeprefix("# ").split(", "))
        assert {key: ast.literal_eval(val) for key, val in items.items()} == {
            **res.summary, "passed": res.passed}

    @pytest.mark.parametrize("command, options", [
        ("dims", {"--lam", "--N"}),
        ("enumerate", {"--n", "--N", "--format"}),
        ("sample", {"--n", "--N", "--c", "--samples", "--seed", "--measure"}),
        ("bounds", {"--n", "--N", "--c", "--samples", "--seed", "--slack", "--format"}),
        ("biane", {"--n", "--N", "--c", "--samples", "--seed", "--format"}),
        ("constants", {"--c-grid", "--format"}),
        ("emit-shape", {"--c", "--step"}),
        ("verify-all", {"--seed"}),
    ])
    def test_help_lists_each_option(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out.partition("\noptions:\n")[2]
        listed = {word.rstrip(",") for word in listing.split() if word.startswith("-")}
        assert listed == options | {"-h", "--help", "--config", "--out"}

    def test_json_format(self, capsys):
        assert main(["enumerate", "--n", "3", "--N", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] and data["sum_dim_iso"] == 8


EXPECTED_COVERAGE = {
    "sum-rule-tensor", "sum-rule-plancherel", "measure-content-product",
    "rsk-sampler", "decomposition", "eps-independence", "variational-identity",
    "minimizer", "hook-integral-quadrature", "gap-positivity",
    "lemma-A", "lemma-I", "lemma-F3", "lemma-intIOmega",
    "sobolev-half-norm", "H-function", "J-function", "G-function",
    "limit-shape", "alpha-constant", "beta-constant", "m-series",
    "power-series-identity", "hat-inequality", "partition-function",
}


class TestVerifyAll:
    def test_full_report(self, verify_all_report):
        report = verify_all_report
        failing = [c for c in report["checks"] if not c["pass"]]
        assert report["passed"], failing
        # coverage manifest is complete
        assert set(report["coverage"]) == EXPECTED_COVERAGE
        # record format
        for ch in report["checks"]:
            assert {"test", "params", "lhs", "rhs", "abs_err", "tol", "pass"} <= set(ch)

    def test_deterministic(self, verify_all_report):
        assert harness.cmd_verify_all(seed=0) == verify_all_report


class TestChiSquare:
    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 31, 100, 200])
    def test_sf_matches_scipy(self, dof):
        for chisq in (0.01, 0.5, dof / 2, dof, 2 * dof, 3 * dof + 20):
            assert checks.chi_square_sf(chisq, dof) == pytest.approx(
                stats.chi2.sf(chisq, dof), rel=1e-12, abs=0)

    def test_no_scipy_at_runtime(self):
        # The pytest process has scipy loaded already, so a fresh one runs the
        # constants table and the chi-square family.
        code = ("import sys\n"
                "from ytensor import checks, harness\n"
                "assert harness.main(['constants', '--c-grid', '0,1.0001']) == 0\n"
                "list(checks.chi_square(count=2000))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = Path(harness.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
