"""Exact samplers for the Schur-Weyl and Plancherel shape measures.

The Schur-Weyl measure is realized as the RSK insertion-tableau shape of a
uniform random word over the alphabet 1..N; the Plancherel measure as the
Robinson-Schensted shape of a uniform random permutation.  Only the insertion
tableau is kept (the recording tableau is never built), with one binary search
per bump.

Randomness uses the counter-based Philox generator keyed by (seed, trial), so
trial k is reproducible regardless of how trials are scheduled across workers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from .diagrams import Partition

__all__ = [
    "trial_rng",
    "rsk_shape_from_letters",
    "sample_schur_weyl",
    "sample_plancherel",
    "sample_dump",
]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for a given (seed, trial) pair."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    return np.random.Generator(np.random.Philox(key=key))


def rsk_shape_from_letters(letters: Iterable[int]) -> Partition:
    """Shape of the RSK insertion tableau of a word (row insertion)."""
    rows: list[list[int]] = []
    for x in letters:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                x = None
                break
            x, row[pos] = row[pos], x
        if x is not None:
            rows.append([x])
    return Partition(tuple(len(r) for r in rows))


def sample_schur_weyl(n: int, N: int, seed: int, count: int) -> list[Partition]:
    """i.i.d. shapes with the Schur-Weyl law, deterministic for a fixed seed."""
    if n < 1 or N < 1 or count < 1:
        raise ValueError("n, N and count must be positive")
    out = []
    for k in range(count):
        rng = trial_rng(seed, k)
        letters = rng.integers(1, N + 1, size=n)
        out.append(rsk_shape_from_letters(letters.tolist()))
    return out


def sample_plancherel(n: int, seed: int, count: int) -> list[Partition]:
    """i.i.d. shapes with the Plancherel law (RS on uniform permutations)."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be positive")
    out = []
    for k in range(count):
        rng = trial_rng(seed, k)
        perm = rng.permutation(n)
        out.append(rsk_shape_from_letters(perm.tolist()))
    return out


def sample_dump(samples: Sequence[Partition], n: int, N: int | None, seed: int) -> str:
    """Text dump: a header line with the parameters, then one partition per line."""
    header = f"# n={n} N={N if N is not None else '-'} seed={seed} count={len(samples)}"
    return "\n".join([header] + [str(lam) for lam in samples]) + "\n"
