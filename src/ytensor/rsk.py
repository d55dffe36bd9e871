"""Exact samplers for the Schur-Weyl and Plancherel shape measures.

The Schur-Weyl measure is realized as the RSK insertion-tableau shape of a
uniform random word over the alphabet 1..N; the Plancherel measure as the
Robinson-Schensted shape of a uniform random permutation.  Only the shape is
kept (the recording tableau is never built).

Two routes compute it.  ``rsk_shape_from_letters`` inserts one letter at a
time with one binary search per bump.  ``rsk_shapes_from_words`` is a numpy
kernel for a batch of words: it inserts each word's positions letter block
by letter block, every (row, block) step of one anti-diagonal for all words
in one pass, so a word over N letters takes at most N + height passes
instead of one Python-level step per bump (1.5e6 bumps for one word at
n = 3e4, N = 173).  ``sample_schur_weyl`` uses the kernel: two words at
n = 3e4, N = 173 take 0.19 s against 0.92-1.03 s on the loop, and one word
at n = 1e6, N = 1000 takes 22-24 s with a 140 MB peak (2 cores).
``sample_plancherel`` stays on the bisect loop: a permutation has n letter
blocks of one position each, so the kernel makes n passes of tiny arrays,
0.20-0.25 s against 0.12-0.14 s for the loop at n = 1e4.  The loop is also
the kernel's oracle in the tests.

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

# Letters per rsk_shapes_from_words call in sample_schur_weyl.  It bounds the
# kernel's arrays: at 2**20 letters, 2e4 words at n = 4 raised the peak RSS by
# 2 MB over the bisect loop, at 2**14 by 0.3 MB, and no timing moved.
_KERNEL_LETTERS = 1 << 14

__all__ = [
    "trial_rng",
    "rsk_shape_from_letters",
    "rsk_shapes_from_words",
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


def rsk_shapes_from_words(words: np.ndarray) -> list[Partition]:
    """RSK shapes of the rows of a 2-D integer array, one word per row.

    Equal to ``rsk_shape_from_letters`` on each row.  By RSK symmetry a word
    has the shape of the permutation that lists its positions letter by
    letter, so the kernel inserts positions, one letter block at a time.  A
    block's positions increase, so a row takes a whole block in one step:
    entry j lands at p_j = max(searchsorted(row, s_j), p_{j-1} + 1) and
    bumps the old row[p_j], if any, into the next row.  Row i of block v
    needs only row i - 1 of block v and row i of block v - 1, so each pass
    runs every (row, block) step of one anti-diagonal, for all words at once:
    at most (distinct letters) + (rows) passes.

    All rows of all ``count`` words live in one sorted array of keys
    group * (n + 1) + position, where group = row * count + word.  A group
    holds at most n // (row + 1) entries (the row-length bound of a partition
    of n) and is padded with its sentinel key, group * (n + 1) + n, so one
    searchsorted serves every group and an insertion past a row's end
    overwrites a sentinel.  Because the groups sit in key order, the running
    maximum that gives p_j restarts by itself at a group boundary.  A real
    entry bumped out of the last row, or a row that fills its last slot,
    raises ArithmeticError.
    """
    return [Partition(tuple(r for r in rows if r)) for rows in _row_lengths(words).tolist()]


def _row_lengths(words: np.ndarray) -> np.ndarray:
    """The kernel of ``rsk_shapes_from_words``: row lengths, one word per row.

    Its arrays are freed on return, before the caller builds the partitions.
    """
    words = np.asarray(words)
    count, n = words.shape
    order = np.argsort(words, axis=None, kind="stable")  # by (letter, word, position)
    letters = words.ravel()[order]
    edges = np.concatenate(([0], np.flatnonzero(letters[1:] != letters[:-1]) + 1,
                            [order.size]))
    blocks = edges.size - 1
    height = min(blocks, n)  # a word's height is at most its number of letters
    groups = height * count
    # Keys of one row past the last must fit too, so that an entry bumped out
    # of the last row searches past the table's end instead of wrapping.
    dtype = np.int32 if (groups + count) * (n + 1) <= np.iinfo(np.int32).max else np.int64
    fresh = order.astype(dtype)  # order = word * n + position, so order + word is its row-0 key
    fresh += fresh // n
    del order, letters

    caps = np.repeat(n // np.arange(1, height + 1) + 1, count)  # + 1 for the sentinel
    last = np.cumsum(caps) - 1
    sentinels = np.arange(groups, dtype=dtype) * (n + 1) + n
    table = np.repeat(sentinels, caps)
    ramp = np.arange(fresh.size)
    row_step = count * (n + 1)  # from a key to the same position one row down
    carry = fresh[:0]
    for d in range(blocks + height):
        s = np.concatenate((fresh[edges[d]:edges[d + 1]], carry)) if d < blocks else carry
        if not s.size:
            break
        p = np.searchsorted(table, s)
        p -= ramp[:s.size]
        np.maximum.accumulate(p, out=p)
        p += ramp[:s.size]
        if p[-1] >= table.size - 1:
            raise ArithmeticError("RSK kernel: an entry left the last row or a row overflowed")
        bumped = table[p]
        table[p] = s
        carry = bumped[bumped % (n + 1) != n]
        carry += row_step
    if np.any(table[last] != sentinels):
        raise ArithmeticError("RSK kernel: a row overflowed")
    lengths = np.searchsorted(table, sentinels) - (last + 1 - caps)
    return lengths.reshape(height, count).T


def sample_schur_weyl(n: int, N: int, seed: int, count: int) -> list[Partition]:
    """i.i.d. shapes with the Schur-Weyl law, deterministic for a fixed seed.

    Trial k's word is drawn from stream k exactly as ``rsk_shape_from_letters``
    would read it; the words of up to ``_KERNEL_LETTERS`` letters at a time
    go through ``rsk_shapes_from_words`` together.
    """
    if n < 1 or N < 1 or count < 1:
        raise ValueError("n, N and count must be positive")
    per_call = max(1, _KERNEL_LETTERS // n)
    words = np.empty((min(count, per_call), n), dtype=np.min_scalar_type(N))
    streams = _trial_streams(seed, count)
    shapes: list[Partition] = []
    for start in range(0, count, per_call):
        batch = words[:min(per_call, count - start)]
        for word, rng in zip(batch, streams):
            word[:] = rng.integers(1, N + 1, size=n)
        shapes += rsk_shapes_from_words(batch)
    return shapes


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
