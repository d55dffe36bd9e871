"""Exact dimensions, exact rational measures, log-measures and partition counting.

Dimensions of the symmetric-group representation V, the GL(N) highest-weight
representation W and the isotypic component E = V (x) W, and the Plancherel
and Schur-Weyl probabilities, are exact integers and rationals.  The scaled
log-measure -ln P / sqrt(n) is summed in the log domain over the hook and
shifted-content histograms, as a sum of prime exponents times ln p (one
logarithm per prime up to n, through a smallest-prime-factor sieve), and p(n)
comes from the Hardy-Ramanujan-Rademacher series rounded to the nearest
integer; neither builds an n!-sized integer.
Diagrams with bounded height are enumerated iteratively.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath
import numpy as np

from .diagrams import Partition

__all__ = [
    "ExactDims",
    "ExactMeasure",
    "hook_lengths",
    "shifted_contents",
    "dim_sym",
    "dim_gl",
    "dim_iso",
    "exact_dims",
    "plancherel",
    "schur_weyl_measure",
    "neg_log_measure_scaled",
    "enumerate_diagrams",
    "partition_count",
]


@dataclass(frozen=True)
class ExactDims:
    """The exact record of a diagram of n cells at rank N: dim V and dim W.

    dim E = dim V * dim W, the Plancherel probability (dim V)^2 / n! and the
    Schur-Weyl probability dim E / N^n are read from it.
    """

    n: int
    N: int
    dim_sym: int
    dim_gl: int

    @property
    def dim_iso(self) -> int:
        return self.dim_sym * self.dim_gl

    @property
    def plancherel(self) -> ExactMeasure:
        return ExactMeasure(Fraction(self.dim_sym * self.dim_sym, math.factorial(self.n)))

    @property
    def schur_weyl(self) -> ExactMeasure:
        return ExactMeasure(Fraction(self.dim_iso, self.N ** self.n))


@dataclass(frozen=True)
class ExactMeasure:
    """An exact rational probability."""

    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"measure out of [0,1]: {self.value}")


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all cells, row-major."""
    conj = lam.conjugate_rows
    out = []
    for i, r in enumerate(lam.rows, start=1):
        for j in range(1, r + 1):
            out.append(r - j + conj[j - 1] - i + 1)
    return out


def shifted_contents(lam: Partition, N: int) -> list[int]:
    """Shifted contents N + j - i of all cells, row-major."""
    return [N + j - i for i, r in enumerate(lam.rows, start=1) for j in range(1, r + 1)]


def _power_product(values: list[int]) -> int:
    """Product of values, taken as one power per distinct value."""
    return math.prod(k ** m for k, m in Counter(values).items())


def _exact_quotient(numer: int, hooks: int) -> int:
    """numer divided exactly by a hook product."""
    q, r = divmod(numer, hooks)
    if r:
        raise ArithmeticError("quotient is not integral")
    return q


def exact_dims(lam: Partition, N: int) -> ExactDims:
    """The exact record of lam at rank N, from one hook product H.

    dim V = n! / H, and dim W is the product of the shifted contents N + c over
    H, formed only when lam has at most N rows (else a factor N + c is 0).
    """
    if N < 1:
        raise ValueError("N must be positive")
    hooks = _power_product(hook_lengths(lam))
    gl = 0 if lam.height > N else _exact_quotient(_power_product(shifted_contents(lam, N)), hooks)
    return ExactDims(lam.n, N, _exact_quotient(math.factorial(lam.n), hooks), gl)


def dim_sym(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation: n! over the hook product.

    Read at N = 1, where no diagram of two or more rows forms a content product.
    """
    return exact_dims(lam, 1).dim_sym


def dim_gl(lam: Partition, N: int) -> int:
    """Dimension of the GL(N) highest-weight representation for shape lam.

    Zero when the diagram has more than N rows (the factor N + c vanishes).
    """
    return exact_dims(lam, N).dim_gl


def dim_iso(lam: Partition, N: int) -> int:
    """Dimension of the isotypic component of the n-fold tensor power of C^N."""
    return exact_dims(lam, N).dim_iso


def plancherel(lam: Partition) -> ExactMeasure:
    """Plancherel probability (dim V)^2 / n! as an exact rational, read at N = 1."""
    return exact_dims(lam, 1).plancherel


def schur_weyl_measure(lam: Partition, N: int) -> ExactMeasure:
    """Schur-Weyl probability dim E / N^n as an exact rational."""
    return exact_dims(lam, N).schur_weyl


def _smallest_prime_factors(m: int) -> np.ndarray:
    """spf[k], the smallest prime factor of k, for 2 <= k <= m (spf[0] = 0, spf[1] = 1)."""
    spf = np.zeros(m + 1, dtype=np.int64)
    for p in range(2, math.isqrt(m) + 1):
        if not spf[p]:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    return np.where(spf == 0, np.arange(m + 1), spf)


def neg_log_measure_scaled(lam: Partition, N: int) -> mpmath.mpf:
    """-ln(P(lam)) / sqrt(n) for the Schur-Weyl measure, in the log domain.

    -ln P = n ln N - ln n! + sum_k (2 m_h(k) - m_x(k)) ln k, where m_h and m_x
    count the hook lengths and shifted contents equal to k; both histograms
    come from np.bincount over the cells, the contents counted as offsets from
    N - height + 1, so that any N stays exact.  n! is folded into the same
    histogram up to top = min(n, its largest key), so equal factors cancel
    before any logarithm is taken (P = 1 gives exactly 0), and the rest of
    ln n! is a difference of log-gammas.  The weights at keys up to top become
    prime exponents through a smallest-prime-factor sieve, so the sum takes
    one logarithm per prime up to top, plus one per content above top (only
    when N > n) and ln N; each at 50 significant decimal digits.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if lam.height > N:
        raise ZeroDivisionError(f"measure of {lam} is zero for N={N}")
    n, height = lam.n, lam.height
    rows = np.array(lam.rows, dtype=np.int64)
    cols = np.array(lam.conjugate_rows, dtype=np.int64)
    i = np.repeat(np.arange(height), rows)  # each cell's row and column, from 0, row-major
    j = np.arange(n) - np.repeat(np.cumsum(rows) - rows, rows)
    hooks = np.bincount(rows[i] - j + cols[j] - i - 1)
    contents = np.bincount(j - i + height - 1)  # offsets from base = N - height + 1
    base = N - height + 1
    top = min(n, max(len(hooks) - 1, base + len(contents) - 1))
    weight = np.zeros(top + 1, dtype=np.int64)
    weight[:len(hooks)] = 2 * hooks
    low = max(0, min(len(contents), top - base + 1))  # the offsets whose content is at most top
    weight[base:base + low] -= contents[:low]
    weight[1:] -= 1
    keys = np.flatnonzero(weight[2:]) + 2
    w = weight[keys]
    spf = _smallest_prime_factors(top)
    exponents = np.zeros(top + 1)  # exact: every partial sum is an integer far below 2**53
    while keys.size:
        p = spf[keys]
        exponents += np.bincount(p, w, top + 1)
        keys //= p
        more = keys > 1
        keys, w = keys[more], w[more]
    primes = np.flatnonzero(exponents)
    above = np.flatnonzero(contents[low:]) + low
    with mpmath.workdps(50):
        logs = [int(e) * mpmath.log(int(p)) for p, e in zip(primes, exponents[primes])]
        logs += [-int(contents[o]) * mpmath.log(base + int(o)) for o in above]
        val = (n * mpmath.log(N) - (mpmath.loggamma(n + 1) - mpmath.loggamma(top + 1))
               + mpmath.fsum(logs))
        return val / mpmath.sqrt(n)


def enumerate_diagrams(n: int, N: int) -> Iterator[Partition]:
    """All partitions of n into at most N parts, lexicographically decreasing.

    Iterative successor walk (no recursion), so large n with small N is fine.
    """
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    # Start from the lexicographically largest partition: a single row.
    cur: list[int] = [n]
    while True:
        yield Partition(tuple(cur))
        # Successor in decreasing lex order among partitions with at most N
        # parts: lower the rightmost part that can lose a cell while the cells
        # from it on still fit in N - idx parts of the lowered size (a part of
        # 1 never fits, as its cap is 0), and refill greedily.
        for idx in range(len(cur) - 1, -1, -1):
            cap = cur[idx] - 1
            rest = sum(cur[idx:])
            if rest <= cap * (N - idx):
                break
        else:
            return
        cur = cur[:idx] + [cap] * (rest // cap) + ([rest % cap] if rest % cap else [])


def _rademacher_terms(n: int) -> int:
    """Fewest terms that put Lehmer's bound on the series remainder below 1/4 (n >= 2)."""
    x = math.pi * math.sqrt(2 * n / 3)
    k = math.ceil(x / 700)  # keeps sinh(x / k) finite
    while (44 * math.pi ** 2 / (225 * math.sqrt(3)) / math.sqrt(k)
           + math.pi * math.sqrt(2) / 75 * math.sqrt(k / (n - 1)) * math.sinh(x / k)) >= 0.25:
        k += 1
    return k


# Terms of the Rademacher series with mu_k below this are summed in float64.
_FLOAT_MU = 10.0
# About this many (k, l) pairs per chunk of _float_terms: a few MB of temporaries.
_CHUNK_PAIRS = 1 << 18


def _float_terms(n: int, mu_1: float, ks: np.ndarray) -> float:
    """sum of S_k (cosh mu_k - sinh mu_k / mu_k) over ks in float64, mu_k = mu_1 / k.

    Each S_k runs over the flat pairs (k, l), 0 <= l < 2k, built for a chunk
    of ks at a time: all of them at once would be ~K^2 pairs, 10^8 at n = 10^9.
    """
    total = 0.0
    for chunk in np.array_split(ks, 2 * int(ks.sum()) // _CHUNK_PAIRS + 1):
        if not chunk.size:
            continue
        k = np.repeat(chunk, 2 * chunk)
        l = np.arange(k.size) - np.repeat(np.cumsum(2 * chunk) - 2 * chunk, 2 * chunk)
        hit = ((3 * l * l + l) // 2 + n % k) % k == 0
        k, l = k[hit], l[hit]
        s_k = np.bincount(k - chunk[0], np.where(l % 2, -1.0, 1.0)
                          * np.cos(np.pi * (6 * l + 1) / (6 * k)), chunk.size)
        mu = mu_1 / chunk
        total += float(s_k @ (np.cosh(mu) - np.sinh(mu) / mu))
    return total


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by the Hardy-Ramanujan-Rademacher series.

    With lam = sqrt(n - 1/24), C = pi sqrt(2/3) and mu_k = C lam / k,
    p(n) = C / (2 sqrt(6) pi lam^2) sum_k S_k (cosh mu_k - sinh mu_k / mu_k),
    where Selberg's S_k = sum (-1)^l cos(pi (6l + 1) / (6k)) runs over the
    0 <= l < 2k with (3l^2 + l)/2 = -n mod k (so A_k(n) = sqrt(k/3) S_k).
    Term k is at most 2k e^mu_k.  The terms with mu_k >= 10 are taken in
    mpmath, each at its own precision, the digit count of e^mu_k plus 15, and
    summed at the precision of term 1; the rest, k > mu_1 / 10, in one
    float64 pass (_float_terms).  The error after the prefactor (below 0.1
    for n >= 2) has three parts, for K terms:

    - Lehmer's bound on the series remainder, below 1/4 by the choice of K;
    - the mpmath terms: an error in mu_k is magnified by mu_k in cosh, so
      term k is off by ~2k (1 + mu_k) 1e-15, ~1e-16 K (K + 1 + 2 mu_1) in
      all, below 1e-6 for n <= 1e9;
    - the float64 tail: term k is off by ~2k (1 + mu_k) e^mu_k 2.2e-16 with
      mu_k < 10, so 0.1 * 2 K^2 e^10 * 11 * 2.2e-16 in all: 5e-8 at n = 1e4,
      2e-6 at 1e6 and 1.1e-3 at 1e9.

    The sum stays below 1/2 for n <= 1e9, so rounding to the nearest integer
    is exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return 1
    terms = _rademacher_terms(n)
    mu_1 = math.pi * math.sqrt(2 / 3) * math.sqrt(n - 1 / 24)
    exact_terms = min(terms, int(mu_1 / _FLOAT_MU))
    with mpmath.workdps(int(mu_1 / math.log(10)) + 15):
        lam = mpmath.sqrt(mpmath.mpf(24 * n - 1) / 24)
        C = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
        total = mpmath.mpf(_float_terms(n, mu_1, np.arange(exact_terms + 1, terms + 1)))
        for k in range(1, exact_terms + 1):
            with mpmath.workdps(int(mu_1 / (k * math.log(10))) + 15):
                s_k = sum((-1) ** l * mpmath.cospi(mpmath.mpf(6 * l + 1) / (6 * k))
                          for l in range(2 * k) if ((3 * l * l + l) // 2 + n) % k == 0)
                mu = C * lam / k
                term = s_k * (mpmath.cosh(mu) - mpmath.sinh(mu) / mu) if s_k else 0
            total += term
        return int(mpmath.nint(C * total / (2 * mpmath.sqrt(6) * mpmath.pi * lam ** 2)))
