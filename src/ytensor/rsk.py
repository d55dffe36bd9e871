"""Exact samplers for the Schur-Weyl and Plancherel shape measures.

The Schur-Weyl measure is realized as the RSK insertion-tableau shape of a
uniform random word over the alphabet 1..N; the Plancherel measure as the
Robinson-Schensted shape of a uniform random permutation.  Only the insertion
tableau is kept (the recording tableau is never built), with one binary search
per bump.

Randomness uses the counter-based Philox generator keyed by (seed, trial):
trial k always draws from stream k of ``trial_rng``, whatever the number of
trials requested.  A sampler call builds one Philox and re-keys it per trial,
which yields the same streams without paying for a new generator each time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

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
    """Stream ``trial`` of ``seed``: a fresh Philox keyed by (seed mod 2**64, trial).

    This defines the (seed, trial) contract.  The samplers draw the same
    streams through ``_trial_streams``; the tests compare them against it.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    return np.random.Generator(np.random.Philox(key=key))


def _trial_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield one Generator per trial 0..count-1, each equal to ``trial_rng(seed, k)``.

    The same Generator is re-keyed and yielded every time, so a stream must be
    used up before the next one is requested.  Assigning the state dict of a
    fresh Philox back, with only the trial key changed, resets the counter
    and discards any buffered output.
    """
    bitgen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for k in range(count):
        key[1] = k
        bitgen.state = state
        yield rng


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
    return [rsk_shape_from_letters(rng.integers(1, N + 1, size=n).tolist())
            for rng in _trial_streams(seed, count)]


def sample_plancherel(n: int, seed: int, count: int) -> list[Partition]:
    """i.i.d. shapes with the Plancherel law (RS on uniform permutations)."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be positive")
    return [rsk_shape_from_letters(rng.permutation(n).tolist())
            for rng in _trial_streams(seed, count)]


def sample_dump(samples: Sequence[Partition], n: int, N: int | None, seed: int) -> str:
    """Text dump: a header line with the parameters, then one partition per line."""
    header = f"# n={n} N={N if N is not None else '-'} seed={seed} count={len(samples)}"
    return "\n".join([header] + [str(lam) for lam in samples]) + "\n"
