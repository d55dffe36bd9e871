"""Quick self-test of the benchmark at toy sizes (about two minutes).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--size toy`` and checks that
the last line carries exactly the metrics BENCHMARK.json names, with their
units, that every job passed, and that in the traced run the spans' self
times add up to the traced wall time.  Then checks that the benchmark refuses
to run, without printing a result, from a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, set(got) ^ set(want)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # Every moment of the traced pass lies inside some span.
        assert abs(metrics["trace.unattributed_s"]) <= 0.01 * metrics["trace.run_s"], metrics
    else:
        assert all(v > 0 for v in metrics.values()), metrics
    print(f"ok  {workload:<18} trace {trace}")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0 and not last.startswith("{"), proc.stdout
    print("ok  bare directory refused")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
