"""Exact samplers for the Schur-Weyl and Plancherel shape measures.

The Schur-Weyl measure is realized as the RSK insertion-tableau shape of a
uniform random word over the alphabet 1..N; the Plancherel measure as the
Robinson-Schensted shape of a uniform random permutation.  Only the shape is
kept (the recording tableau is never built).

Two routes compute it.  ``rsk_shape_from_letters`` inserts one letter at a
time with one binary search per bump.  ``_row_lengths`` is a numpy kernel
for a batch of words: it inserts each word's positions letter block by
letter block, every (row, block) step of one anti-diagonal for all words in
one pass, so a word over N letters takes at most N + height passes instead
of one Python-level step per bump (1.5e6 bumps for one word at n = 3e4,
N = 173).  ``sample_schur_weyl`` maps one function, ``_draw_batch``, over its
batches: each batch draws its words into a buffer of its own and returns
their row lengths from the kernel, or, on the word-table path below, their
word codes.  Long words run one per batch and one thread per word: two
words at n = 3e4, N = 173 take 0.13-0.21 s on 2 cores, against
0.19-0.22 s in one thread and 0.92-1.03 s on the loop; on a host that
gives about one CPU of throughput to two processes, the pool reads
0.11-0.17 s against 0.12-0.17 s in one thread (7 calls each).
One word at n = 1e6, N = 1000 takes 22-24 s with a 140 MB peak, and
``ytensor bounds --n 1000000 --c 1 --samples 2`` takes 25-27 s with a
197-199 MB peak RSS, against 46-47 s and 170-171 MB in one thread.
``sample_plancherel`` stays on the bisect loop: a permutation has n letter
blocks of one position each, so the kernel makes n passes of tiny arrays,
0.20-0.25 s against 0.12-0.14 s for the loop at n = 1e4.  The loop is also
the kernel's oracle in the tests.

Randomness uses the counter-based Philox4x64-10 generator keyed by
(seed, trial): trial k always draws from stream k of ``trial_rng``, whatever
the number of trials requested.  ``sample_schur_weyl`` does not step a numpy
Generator per trial.  It runs Philox's rounds on uint64 arrays for all
trials of a batch at once and applies ``Generator.integers``' bounded-draw
rule (Lemire's rejection) to the raw output, so every word equals
``trial_rng(seed, k).integers(1, N + 1, size=n)`` bit for bit.  A pass runs
Philox's first two rounds only on the lanes that depend on the trial, draws
only the blocks its emptiest row needs, reads the 32-bit draws as a view of
the 64-bit outputs, and forms the bounded draws only where rows take them.
Equal shapes of one ``sample_schur_weyl`` call share one ``Partition``,
across its kernel batches too.  A ``Partition`` is a tuple of its rows and
hashes and compares as one, so a ``Counter`` of the samples makes one C hash
per element and no Python-level call.  When a batch has room for all N**n
words, the kernel runs once per call on all of them, and each batch looks
its words' shapes up in that table; those batches only draw and look up,
so they hold ``_TABLE_LETTERS`` letters, not ``_KERNEL_LETTERS``.  Together
these take 2e4 trials at each of (n, N) = (4, 2), (5, 3), (6, 3) in
0.014-0.021 s (2 cores, medians of 40 calls in each of 8 processes), against
1.18-1.29 s for a Generator per trial: its ``integers`` call costs ~10 us
per trial, re-keying it ~3 us and building each trial's ``Partition`` ~4 us.
A word at n = 3e4 takes 1.0-1.8 ms to draw, against 0.3 ms through
``integers``, beside 80-100 ms of kernel; most of the draw is the 17 calls
of ``_mulhilo``, 15 uint64 array operations each.
``sample_plancherel`` still re-keys one Philox per trial and calls
``Generator.permutation``.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .diagrams import Partition

# Letters per _row_lengths call in sample_schur_weyl, so per batch outside
# the word-table path.  It bounds the kernel's arrays: at 2**20
# letters, 2e4 words at n = 4 raised the peak RSS by 2 MB over the bisect
# loop, at 2**14 by 0.3 MB, and no timing moved.  It also bounds the Philox
# temporaries: one pass of _draw_letters makes at most
# max(one block per word, _KERNEL_LETTERS) draws.  It does not size the
# word-table path's batches, which never reach the kernel.
_KERNEL_LETTERS = 1 << 14

# Letters per batch in sample_schur_weyl's word-table path.  There the kernel
# runs once per call, on the N**n listed words, and a batch only draws its
# letters and looks their shapes up.  Each batch's draw costs a fixed
# ~0.45 ms of numpy calls at (n, N) = (4, 2), so fewer, larger batches are
# faster until their temporaries outgrow the cache.  Per call of 2e4 trials,
# as a ratio to 2**14 letters (medians of 40 calls per process, then over 8
# fresh processes per size, 2 cores), and the peak RSS that the first calls
# at the three (n, N) add to a fresh process:
#
#   letters   (4, 2)   (5, 3)   (6, 3)   peak RSS rise
#   2**14     1        1        1        1.7 MB
#   2**15     0.91     0.88     0.80     2.3 MB
#   2**16     0.83     0.80     0.77     3.7 MB
#   2**17     0.81     0.76     0.71     5.8 MB
#
# Past 2**16 the gain is small and the RSS rise doubles.  At n <= 8 and
# N <= 2**32, _draw_letters' first pass draws one Philox block, eight 32-bit
# draws, per row, which fills every row that keeps n of them.
_TABLE_LETTERS = 1 << 16

# Philox4x64-10 (Salmon et al., SC 2011, as in numpy's philox.h): the round
# multipliers and the Weyl constants that bump the key between rounds.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

__all__ = [
    "trial_rng",
    "rsk_shape_from_letters",
    "sample_schur_weyl",
    "sample_plancherel",
    "sample_dump",
]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Stream ``trial`` of ``seed``: a fresh Philox keyed by (seed mod 2**64, trial).

    This defines the (seed, trial) contract.  ``sample_schur_weyl`` draws the
    same streams through ``_draw_letters`` and ``sample_plancherel`` through
    ``_trial_streams``; the tests compare both against it.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    return np.random.Generator(np.random.Philox(key=key))


def _trial_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield one Generator per trial 0..count-1, each equal to ``trial_rng(seed, k)``.

    ``sample_plancherel`` draws its permutations from these.

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


def _mulhilo(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * b, for a uint64 array a and 0 <= b < 2**64.

    The high word is built from 32-bit halves (Hacker's Delight's mulhu: no
    partial sum overflows 64 bits); the low word is the wrapping uint64
    product.  Array arithmetic wraps silently where a numpy scalar would warn.
    """
    b_lo, b_hi = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    t = a_hi * b_lo
    t += (a_lo * b_lo) >> _SHIFT32
    w = t & _MASK32
    w += a_lo * b_hi
    hi = a_hi * b_hi
    hi += t >> _SHIFT32
    hi += w >> _SHIFT32
    return hi, a * np.uint64(b)


def _philox_blocks(seed: int, trials: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Raw 64-bit outputs of counter blocks first..first+blocks-1 of each trial's stream.

    Row t is ``trial_rng(seed, trials[t])``'s ``bit_generator.random_raw`` from
    output 4 * (first - 1) on: numpy bumps the counter before it makes a
    block, so a fresh stream's first block has counter (1, 0, 0, 0).  The
    key is (seed mod 2**64, trial).

    The first two rounds run only on the lanes that depend on the trial.  In
    round 0 the counter's lanes 1-3 are zero, so the second product is 0 and
    the first depends on the block alone: it is taken on the 1-D counters.
    In round 1, lane 0 is the seed key, so its product is one Python-int
    multiplication.  A pass makes 17 full-array products, not two per round.
    """
    k0 = seed & 0xFFFFFFFFFFFFFFFF
    k1 = trials.astype(np.uint64)[:, None]
    hi0, lo0 = _mulhilo(np.arange(first, first + blocks, dtype=np.uint64), _PHILOX_M[0])
    c2, c3 = hi0 ^ k1, lo0  # round 0; lane 0 is now k0 and lane 1 zero
    p0 = k0 * _PHILOX_M[0]
    k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
    k1 = k1 + np.uint64(_PHILOX_W[1])
    hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
    c0, c1 = hi1 ^ np.uint64(k0), lo1  # round 1
    c2, c3 = np.uint64(p0 >> 64) ^ c3 ^ k1, np.uint64(p0 & 0xFFFFFFFFFFFFFFFF)
    for _ in range(2, _PHILOX_ROUNDS):
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
        k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1  # in place: the products are fresh arrays
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(trials.size, 4 * blocks)


def _lemire(u: np.ndarray, N: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low ``bits``-bit words of u * N: the letter minus 1, and the
    word that Lemire's rejection test compares with its threshold."""
    if bits == 64:
        return _mulhilo(u, N)
    m = np.multiply(u, np.uint64(N), dtype=np.uint64)  # u may be a uint32 view
    return m >> _SHIFT32, m & _MASK32


def _draw_letters(seed: int, trials: np.ndarray, n: int, N: int, out: np.ndarray) -> None:
    """Fill row t of ``out`` with ``trial_rng(seed, trials[t]).integers(1, N + 1, size=n)``.

    ``Generator.integers`` draws with Lemire's method: for N <= 2**32 it takes
    32-bit outputs u (each 64-bit output low half first, as numpy's
    ``philox_next32`` does), forms m = u * N and rejects u iff
    m mod 2**32 < (2**32 - N) mod N; the letter is (m >> 32) + 1.  Larger N
    takes whole 64-bit outputs and a 128-bit product.  N = 1 draws nothing.
    A pass draws the blocks that hold the n - h0 draws its emptiest row
    lacks (h0 letters held), as far as its size cap allows; rows left short
    by rejections draw their next blocks in another pass, until every row is
    full.

    A pass stores its letters one of two ways.  When every active row holds
    the same number h0 of letters, it first forms u * N and the rejection
    test on the k draws the rows still need only, and if every one is
    accepted, draw j of a row is its letter h0 + j, so the pass writes the
    slice ``out[active, h0:h0 + k]``.  That holds for a batch's first pass
    whenever no draw is rejected (always for N a power of 2, where the test
    is skipped, and all but about once in 4e9 draws at N = 3), and for nearly
    every pass of a lone long word.  Any other pass forms every draw's
    product and places each accepted draw by a running count of the
    accepted draws before it in its row.  A first pass over 16384 rows at
    (n, N) = (4, 2), one word-table batch, takes 2.9-3.3 ms, against
    0.9-1.3 ms over 4096 rows (medians of 200 calls, 4 processes each,
    2 cores).
    """
    if N == 1:
        out[:] = 1
        return
    bits = 32 if N <= 1 << 32 else 64
    per_block = 256 // bits
    threshold = np.uint64(((1 << bits) - N) % N)
    have = np.zeros(trials.size, dtype=np.intp)
    active = np.arange(trials.size)
    first = 1
    while active.size:
        fill = have[active]
        h0 = int(fill.min())
        blocks = max(1, min(-(-(n - h0) // per_block),
                            _KERNEL_LETTERS // (active.size * per_block)))
        raw = _philox_blocks(seed, trials[active], first, blocks)
        first += blocks
        u = raw
        if bits == 32:  # each output's halves, low first: its little-endian uint32 view
            u = raw.astype("<u8", copy=False).view("<u4").reshape(active.size, -1)
        if h0 == fill.max():
            k = min(n - h0, u.shape[1])
            hi, lo = _lemire(u[:, :k], N, bits)
            if not threshold or (lo >= threshold).all():
                rows = slice(None) if active.size == trials.size else active  # a slice is cheaper
                out[rows, h0:h0 + k] = hi + np.uint64(1)
                have[active] = h0 + k
                active = active[have[active] < n]
                continue
        hi, lo = _lemire(u, N, bits)
        accept = lo >= threshold
        slot = np.cumsum(accept, axis=1) + fill[:, None] - 1
        take = accept & (slot < n)
        rows = np.broadcast_to(active[:, None], take.shape)[take]
        out[rows, slot[take]] = hi[take] + np.uint64(1)
        have[active] = np.minimum(slot[:, -1] + 1, n)
        active = active[have[active] < n]


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


def _shared_partitions(lengths: np.ndarray, shapes: dict) -> list[Partition]:
    """One ``Partition`` per row of a row-length table, equal rows sharing one.

    ``shapes`` maps row-length tuples, zero-padded or not, to their
    ``Partition`` and grows with each new shape, so callers that pass the same
    dict share the partitions across tables of different heights.
    """
    table = list(map(tuple, lengths.tolist()))
    for rows in set(table).difference(shapes):
        parts = tuple(r for r in rows if r)
        shapes[rows] = shapes.setdefault(parts, Partition(parts))
    return [shapes[rows] for rows in table]


def _row_lengths(words: np.ndarray) -> np.ndarray:
    """The RSK kernel: row lengths of the rows of a 2-D integer array, one word per row.

    Row w of the result is ``rsk_shape_from_letters`` of word w, padded with
    zeros to the table's height; ``_shared_partitions`` turns the table into
    partitions.  The kernel's arrays are freed on return, before the caller
    builds them.

    By RSK symmetry a word has the shape of the permutation that lists its
    positions letter by letter, so the kernel inserts positions, one letter
    block at a time.  A block's positions increase, so a row takes a whole
    block in one step:
    entry j lands at p_j = max(searchsorted(row, s_j), p_{j-1} + 1) and
    bumps the old row[p_j], if any, into the next row.  Row i of block v
    needs only row i - 1 of block v and row i of block v - 1, so each pass
    runs every (row, block) step of one anti-diagonal, for all words at once:
    at most (distinct letters) + (rows) passes.

    All rows of all ``count`` words live in one sorted array of keys
    group << shift | position, where group = row * count + word and
    shift = n.bit_length().  A group holds at most n // (row + 1) entries (the
    row-length bound of a partition of n) and is padded with its sentinel key,
    group << shift | mask with mask = 2**shift - 1 >= n, so one searchsorted
    serves every group, an insertion past a row's end overwrites a sentinel,
    and a bitmask, not a modulo, tells a bumped sentinel from an entry.
    Because the groups sit in key order, the running maximum that gives p_j
    restarts by itself at a group boundary.  A real entry bumped out of the
    last row, or a row that fills its last slot, raises ArithmeticError.
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
    shift = n.bit_length()
    mask = (1 << shift) - 1  # every position is below it, so it marks a sentinel
    # Keys of one row past the last must fit too, so that an entry bumped out
    # of the last row searches past the table's end instead of wrapping.
    dtype = np.int32 if (groups + count) << shift <= np.iinfo(np.int32).max else np.int64
    fresh = order.astype(dtype)  # order = word * n + position; row-0 key word << shift | position
    fresh += fresh // n * (mask + 1 - n)
    del order, letters

    caps = np.repeat(n // np.arange(1, height + 1) + 1, count)  # + 1 for the sentinel
    last = np.cumsum(caps) - 1
    sentinels = np.arange(groups, dtype=dtype) << shift | mask
    table = np.repeat(sentinels, caps)
    ramp = np.arange(fresh.size)
    row_step = count << shift  # from a key to the same position one row down
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
        carry = bumped[(bumped & mask) != mask]
        carry += row_step
    if np.any(table[last] != sentinels):
        raise ArithmeticError("RSK kernel: a row overflowed")
    lengths = np.searchsorted(table, sentinels) - (last + 1 - caps)
    return lengths.reshape(height, count).T


def sample_schur_weyl(n: int, N: int, seed: int, count: int) -> list[Partition]:
    """i.i.d. shapes with the Schur-Weyl law, deterministic for a fixed seed.

    Trial k's word is ``trial_rng(seed, k).integers(1, N + 1, size=n)``, bit
    for bit, but ``_draw_letters`` draws the words of a whole batch at once
    from one vectorized Philox pass instead of stepping a Generator per trial.
    ``_draw_batch`` draws one batch of up to ``_KERNEL_LETTERS`` letters and
    runs the kernel ``_row_lengths`` on it; the batches' shapes become
    partitions in trial order, and equal shapes of all batches are one shared
    ``Partition``.

    When such a batch would have at least as many rows as there are words
    (N**n), most rows repeat a word of another row, so the kernel runs once,
    before the first batch, on all N**n words listed in base-N code order,
    and every batch returns its rows' base-N codes, which look their shapes
    up in that table.  That is exact because a word's RSK shape depends on the
    word alone, and every row still draws its own (seed, trial) stream.  The
    kernel then sees no batch, so batches hold up to ``_TABLE_LETTERS``
    letters.  At (n, N) = (6, 3) the 2e4 trials of 2 batches of up to 10922
    rows run 729 words through the kernel once and build at most 729 row
    tuples.

    At n >= ``_KERNEL_LETTERS`` every batch is one word.  Two or more such
    words run on a thread pool of min(usable CPUs, count) workers; each batch
    draws into a buffer of its own, so at most that many words are in flight.
    The kernel's searchsorted, ufuncs and fancy indexing release the GIL, so
    the words use every core; the partitions are still built in the calling
    thread, in trial order.  Batches of short words stay in one thread: their
    time goes mostly to Python under the GIL, and a prototype that pooled
    them too slowed the chisq-small benchmark (3 x 2e4 trials at n = 4..6)
    from run_ref 0.44 to 0.49 and added 4 MB of RSS.
    """
    if n < 1 or N < 1 or count < 1:
        raise ValueError("n, N and count must be positive")
    if N >= 1 << 63:  # trial_rng's int64 letters cannot reach it
        raise ValueError("N must be below 2**63")
    per_call = max(1, _KERNEL_LETTERS // n)
    workers = min(_usable_cpus(), count) if per_call == 1 else 1
    distinct: dict = {}
    table = radix = None
    if _word_space_fits(n, N, min(count, per_call)):
        per_call = max(per_call, _TABLE_LETTERS // n)
        radix = N ** np.arange(n, dtype=np.int64)
        # Letter i of word c is digit i of c in base N, plus 1.
        every_word = np.arange(N ** n)[:, None] // radix % N + 1
        table = np.fromiter(_shared_partitions(_row_lengths(every_word), distinct),
                            dtype=object, count=N ** n)
    batch = partial(_draw_batch, seed, n, N, count, per_call, radix)
    shapes: list[Partition] = []
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for result in (pool.map if pool else map)(batch, range(0, count, per_call)):
            shapes += (_shared_partitions(result, distinct) if table is None
                       else table[result].tolist())
    return shapes


def _draw_batch(seed: int, n: int, N: int, count: int, per_call: int,
                radix: np.ndarray | None, start: int) -> np.ndarray:
    """Trials start..min(start + per_call, count) - 1, drawn into a buffer of their own.

    Returns the words' base-N codes sum_i (letter_i - 1) N**i when ``radix``
    holds the powers N**i (the word-table path), else their ``_row_lengths``.
    ``sample_schur_weyl`` may run it in worker threads, so it calls nothing
    that keeps shared state.
    """
    words = np.empty((min(per_call, count - start), n), dtype=np.min_scalar_type(N))
    _draw_letters(seed, np.arange(start, start + len(words)), n, N, words)
    return _row_lengths(words) if radix is None else (words - 1) @ radix


def _word_space_fits(n: int, N: int, rows: int) -> bool:
    """Whether all N**n words over 1..N fit in ``rows`` rows, without forming N**n.

    For N >= 2, N**n >= 2**n > rows once n >= rows.bit_length(), so the power
    is taken only for n below that: n = 1e6 and N near 2**63 never form it.
    """
    if N == 1:
        return True
    return n < rows.bit_length() and N ** n <= rows


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
