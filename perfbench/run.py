"""The ytensor benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload chisq-small --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                      # all three workloads, untraced

Run from the root of a checkout; the benchmark imports ytensor from ./src.
Each pass runs in a fresh single-threaded child process (perfbench/worker.py),
one at a time, and pass times are reported in units of a fixed reference
work timed around each pass.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it name every metric with its unit, the raw wall times, the fail ratio and
the machine the run used.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (imports nothing from ytensor)

WORKLOADS = ("chisq-small", "experiments-large", "verify-all")
SETUP_SAMPLES = 3  # fresh interpreters timed per run; setup_s is their median
DEADLINE_S = 170  # per workload; a run must end within 180 s
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

# The metrics of BENCHMARK.json's end_to_end list.  *_ref are in units of the
# reference work timed next to each pass (worker.reference_s).
END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "warm_run_ref": "ref",
                    "items_per_ref": "1/ref", "peak_rss_mb": "MB"}
# Printed with them but left out of the JSON line: the raw wall times drift
# with the host's speed by more than the widest bound (0.25) BENCHMARK.json may set.
WALL_UNITS = {"run_s": "s", "warm_run_s": "s", "items_per_s": "1/s", "reference_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.TRACED + (spans.JOB_SPAN,):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update({"rsk.insert_us_per_letter": "us", "quadrature.integration_warnings": "count",
                  "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_s": "s"})
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, size: str, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise WorkerError(f"{mode} pass of {workload} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def untraced(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    """Cold and warm passes in fresh children until `seconds` have been spent."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_worker(workload, seed, size, "cold-warm", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, size, "setup", deadline)["setup_s"])
    colds = [p["cold"] for p in passes]
    cold_refs = [statistics.fmean(p["reference_s"][0:2]) for p in passes]
    warm_refs = [statistics.fmean(p["reference_s"][1:3]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_ref": statistics.median(c["wall_s"] / r for c, r in zip(colds, cold_refs)),
        "warm_run_ref": statistics.median(p["warm"]["wall_s"] / r
                                          for p, r in zip(passes, warm_refs)),
        "items_per_ref": statistics.median(c["items"] * r / c["wall_s"]
                                           for c, r in zip(colds, cold_refs)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "run_s": statistics.median(c["wall_s"] for c in colds),
        "warm_run_s": statistics.median(p["warm"]["wall_s"] for p in passes),
        "items_per_s": statistics.median(c["items"] / c["wall_s"] for c in colds),
        "reference_s": statistics.median(r for p in passes for r in p["reference_s"]),
    }
    return metrics, tally(colds + [p["warm"] for p in passes])


def traced(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced cold pass until `seconds` have been spent."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    runs = []
    while not runs or time.monotonic() - start < seconds:
        plain = run_worker(workload, seed, size, "cold", deadline)["cold"]
        runs.append((plain, run_worker(workload, seed, size, "traced", deadline)))
    samples = []
    for plain, t in runs:
        m = {}
        for name in spans.TRACED + (spans.JOB_SPAN,):
            calls, self_s, total_s, _ = t["spans"].get(name, (0, 0.0, 0.0, 0))
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = self_s
            m[f"{name}.total_s"] = total_s
        insert_s = m["rsk.rsk_shape_from_letters.self_s"]
        m["rsk.insert_us_per_letter"] = 1e6 * insert_s / t["letters"] if t["letters"] else 0.0
        m["quadrature.integration_warnings"] = t["cold"]["integration_warnings"]
        m["trace.run_s"] = t["cold"]["wall_s"]
        m["trace.untraced_run_s"] = plain["wall_s"]
        m["trace.overhead_s"] = t["cold"]["wall_s"] - plain["wall_s"]
        m["trace.unattributed_s"] = t["cold"]["wall_s"] - sum(v[1] for v in t["spans"].values())
        samples.append(m)
    metrics = {k: statistics.median(m[k] for m in samples) for k in samples[0]}
    return metrics, tally([p for p, _ in runs] + [t["cold"] for _, t in runs])


def tally(passes: list[dict]) -> dict:
    return {"attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "problems": [q for p in passes for q in p["problems"]],
            "integration_warnings": sum(p["integration_warnings"] for p in passes)}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
           "python": sys.version.split()[0], "git_sha": git_sha()}
    for pkg in ("numpy", "scipy", "mpmath"):
        env[pkg] = metadata.version(pkg)
    return env


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    metrics, counts = (traced if trace else untraced)(workload, seed, seconds, size)
    units = per_layer_units() if trace else END_TO_END_UNITS
    correct = counts["failed"] == 0 and not counts["problems"]
    print(f"workload {workload}  seed {seed}  size {size}  trace {int(trace)}")
    for name, unit in {**units, **({} if trace else WALL_UNITS)}.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  {'quadrature.integration_warnings (all passes)':<40} "
          f"{counts['integration_warnings']:>14d} count")
    ratio = counts["failed"] / counts["attempted"]
    print(f"  {'fail_ratio':<40} {ratio:>14.6g} ({counts['failed']}/{counts['attempted']})")
    print(f"  {'correct':<40} {'yes' if correct else 'NO':>14}")
    for problem in counts["problems"]:
        print(f"    {problem}")
    return {"correct": correct, "attempted": counts["attempted"], "failed": counts["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep starting passes until this much time is spent (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy runs the same code at small sizes, for selftest.py")
    args = p.parse_args()

    if not (ROOT / "src" / "ytensor" / "__init__.py").is_file():
        print(f"error: no ytensor package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.size)
                   for w in names}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
