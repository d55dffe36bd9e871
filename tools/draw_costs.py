"""Time the sampler's word draws where rows come from their trial streams.

    PYTHONPATH=src python tools/draw_costs.py

For each case, in one fresh process, prints the median time of 7 warm
``rsk._draw_letters`` calls and the tracemalloc peak of one call:

- 2000 six-letter words of seed 0 at N = 2**31 + 11, where about half of
  all draws are rejected, so nearly every row is drawn again from its
  trial stream;
- trial 4 of seed 0 at n = 10**6, N = 1000, one word that rejects a draw;
- 2000 six-letter words and 2 words of 10**5 letters, of seed 0 at
  N = 2**40 + 3, past 2**32, where every row is drawn from its trial
  stream.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ytensor import rsk

CASES = (
    ("2000 six-letter words, N = 2**31 + 11", 0, range(2000), 6, 2**31 + 11),
    ("trial 4 at n = 10**6, N = 1000", 0, [4], 10**6, 1000),
    ("2000 six-letter words, N = 2**40 + 3", 0, range(2000), 6, 2**40 + 3),
    ("2 words of 10**5 letters, N = 2**40 + 3", 0, range(2), 10**5, 2**40 + 3),
)
CALLS = 7


def measure(seed: int, trials, n: int, N: int) -> tuple[float, int]:
    """(median seconds of CALLS warm calls, tracemalloc peak bytes of one call)
    of ``rsk._draw_letters`` on the given trials, as ``sample_schur_weyl``
    calls it: into a buffer of the smallest dtype that holds N."""
    trials = np.asarray(trials, dtype=np.int64)
    out = np.empty((trials.size, n), dtype=np.min_scalar_type(N))
    rsk._draw_letters(seed, trials, n, N, out)  # warm: imports and first-touch pages
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        rsk._draw_letters(seed, trials, n, N, out)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        rsk._draw_letters(seed, trials, n, N, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    for name, *case in CASES:
        with ProcessPoolExecutor(1, mp_context=spawn) as fresh:
            seconds, peak = fresh.submit(measure, *case).result()
        print(f"{name:<40} {seconds * 1e3:8.2f} ms {peak / 1e6:8.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
