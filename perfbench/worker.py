"""One benchmark pass in a fresh interpreter; run.py starts it and reads the
JSON object it prints as its last line.

    python3 perfbench/worker.py --workload W --seed S --size full --mode M

Modes: ``setup`` only times the imports; ``cold`` times one pass with empty
caches; ``cold-warm`` adds the same pass again in the same process; ``traced``
times one cold pass with spans installed.  The reference work is timed before
and after every pass.  Exit code 3 means ytensor could not be imported from
the checkout's ``src``.
"""

import sys
import time

_start = time.perf_counter()

from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "ytensor" / "__init__.py").is_file():
    print(f"no ytensor package under {SRC}", file=sys.stderr)
    sys.exit(3)
sys.path.insert(0, str(SRC))
try:
    import scipy.stats  # noqa: E402,F401
    import ytensor  # noqa: E402,F401
    import ytensor.harness  # noqa: E402,F401
except ImportError as exc:
    print(f"cannot import ytensor: {exc}", file=sys.stderr)
    sys.exit(3)
SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
from bisect import bisect_right  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

from scipy.integrate import IntegrationWarning  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def reference_s() -> float:
    """Wall time of a fixed piece of interpreter work that does not use ytensor.

    Passes are reported in units of it, because on a shared host whose speed
    drifts the ratio is steadier than either time (see README.md).  The work
    resembles the workloads: row insertion by bisection into short lists of
    small integers, then a product of big integers.
    """
    start = time.perf_counter()
    x, rows = 12345, []
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % 50
        for row in rows:
            pos = bisect_right(row, v)
            if pos == len(row):
                row.append(v)
                break
            v, row[pos] = row[pos], v
        else:
            rows.append([v])
        if len(rows) > 30:
            rows = []
    product = 1
    for k in range(1, 3000):
        product *= k
    return time.perf_counter() - start


class Raised(str):
    """The traceback of a job that raised, kept in place of its output."""


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once, timed; then check the outputs outside the timing."""
    outputs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        start = time.perf_counter()
        for job in jobs:
            run = tracer.wrap(spans.JOB_SPAN, job.run) if tracer else job.run
            try:
                outputs.append(run())
            except Exception:  # a job that raises counts as failed; the pass goes on
                outputs.append(Raised(traceback.format_exc(limit=3)))
        wall = time.perf_counter() - start
    result = {"wall_s": wall, "attempted": 0, "failed": 0, "items": 0, "problems": [],
              "integration_warnings": sum(issubclass(w.category, IntegrationWarning)
                                          for w in caught)}
    for job, out in zip(jobs, outputs):
        if isinstance(out, Raised):
            verdict = (1, 1, 0, [f"raised: {out}"])
        else:
            try:
                verdict = job.check(out)
            except Exception:  # output missing the fields the check reads
                verdict = (1, 1, 0, [f"output unreadable: {traceback.format_exc(limit=2)}"])
        attempted, failed, items, problems = verdict
        result["attempted"] += attempted
        result["failed"] += failed
        result["items"] += items
        result["problems"] += [f"{job.name}: {p}" for p in problems]
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    p.add_argument("--mode", choices=["setup", "cold", "cold-warm", "traced"], required=True)
    args = p.parse_args()

    out: dict = {"setup_s": SETUP_S}
    if args.mode != "setup":
        jobs = workloads.build(args.workload, args.size, args.seed)
        tracer = None
        if args.mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
        refs = [reference_s()]
        out["cold"] = run_pass(jobs, tracer)
        refs.append(reference_s())
        if tracer:
            tracer.uninstall()
            out["spans"] = tracer.stats
            out["letters"] = tracer.letters
        if args.mode == "cold-warm":
            out["warm"] = run_pass(jobs)
            refs.append(reference_s())
        out["reference_s"] = refs
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
