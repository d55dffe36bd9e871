"""Exact dimensions, exact rational measures, log-measures and partition counting.

Dimensions of the symmetric-group representation V, the GL(N) highest-weight
representation W and the isotypic component E = V (x) W, and the Plancherel
and Schur-Weyl probabilities, are exact integers and rationals.  The scaled
log-measure -ln P / sqrt(n) is summed in the log domain over the hook and
shifted-content histograms, and p(n) comes from the Hardy-Ramanujan-Rademacher
series rounded to the nearest integer; neither builds an n!-sized integer.
Diagrams with bounded height are enumerated iteratively.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath

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
    """Exact dimensions dim V, dim W and dim E = dim V * dim W."""

    dim_sym: int
    dim_gl: int

    @property
    def dim_iso(self) -> int:
        return self.dim_sym * self.dim_gl


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


def _dim_gl(lam: Partition, N: int, hooks: int) -> int:
    """dim_gl given the hook product of lam."""
    if N < 1:
        raise ValueError("N must be positive")
    if lam.height > N:
        return 0
    return _exact_quotient(_power_product(shifted_contents(lam, N)), hooks)


def dim_sym(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation: n! over the hook product."""
    return _exact_quotient(math.factorial(lam.n), _power_product(hook_lengths(lam)))


def dim_gl(lam: Partition, N: int) -> int:
    """Dimension of the GL(N) highest-weight representation for shape lam.

    Zero when the diagram has more than N rows (the factor N + c vanishes).
    """
    return _dim_gl(lam, N, _power_product(hook_lengths(lam)))


def dim_iso(lam: Partition, N: int) -> int:
    """Dimension of the isotypic component of the n-fold tensor power of C^N."""
    return exact_dims(lam, N).dim_iso


def exact_dims(lam: Partition, N: int) -> ExactDims:
    """dim_sym and dim_gl, sharing one hook product."""
    hooks = _power_product(hook_lengths(lam))
    return ExactDims(dim_sym=_exact_quotient(math.factorial(lam.n), hooks),
                     dim_gl=_dim_gl(lam, N, hooks))


def plancherel(lam: Partition) -> ExactMeasure:
    """Plancherel probability (dim V)^2 / n! as an exact rational."""
    d = dim_sym(lam)
    value = Fraction(d * d, math.factorial(lam.n))
    return ExactMeasure(value)


def schur_weyl_measure(lam: Partition, N: int) -> ExactMeasure:
    """Schur-Weyl probability dim E / N^n as an exact rational."""
    value = Fraction(exact_dims(lam, N).dim_iso, N ** lam.n)
    return ExactMeasure(value)


def neg_log_measure_scaled(lam: Partition, N: int) -> mpmath.mpf:
    """-ln(P(lam)) / sqrt(n) for the Schur-Weyl measure, in the log domain.

    -ln P = n ln N - ln n! + sum_k (2 m_h(k) - m_x(k)) ln k, where m_h and m_x
    count the hook lengths and shifted contents equal to k.  n! is folded into
    the same histogram up to its largest key, so equal factors cancel before
    any logarithm is taken (P = 1 gives exactly 0), and the rest of ln n! is a
    difference of log-gammas.  The logarithms are taken at 50 significant
    decimal digits.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if lam.height > N:
        raise ZeroDivisionError(f"measure of {lam} is zero for N={N}")
    n = lam.n
    weight = Counter({h: 2 * m for h, m in Counter(hook_lengths(lam)).items()})
    weight.subtract(Counter(shifted_contents(lam, N)))
    top = min(n, max(weight, default=0))
    weight.subtract(range(1, top + 1))
    with mpmath.workdps(50):
        val = (n * mpmath.log(N) - (mpmath.loggamma(n + 1) - mpmath.loggamma(top + 1))
               + mpmath.fsum(w * mpmath.log(k) for k, w in weight.items() if w))
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
        # parts: find the rightmost position whose part can be decremented
        # while the remaining cells still fit into the allowed part count.
        nxt: list[int] | None = None
        for idx in range(len(cur) - 1, -1, -1):
            cap = cur[idx] - 1
            if cap < 1:
                continue
            rest = sum(cur[idx:])
            parts_needed = -(-rest // cap)  # ceil
            if idx + parts_needed > N:
                continue
            tail = []
            remaining = rest
            while remaining > 0:
                take = min(cap, remaining)
                tail.append(take)
                remaining -= take
            nxt = cur[:idx] + tail
            break
        if nxt is None:
            return
        cur = nxt


def _rademacher_terms(n: int) -> int:
    """Fewest terms that put Lehmer's bound on the series remainder below 1/4 (n >= 2)."""
    x = math.pi * math.sqrt(2 * n / 3)
    k = math.ceil(x / 700)  # keeps sinh(x / k) finite
    while (44 * math.pi ** 2 / (225 * math.sqrt(3)) / math.sqrt(k)
           + math.pi * math.sqrt(2) / 75 * math.sqrt(k / (n - 1)) * math.sinh(x / k)) >= 0.25:
        k += 1
    return k


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by the Hardy-Ramanujan-Rademacher series.

    With lam = sqrt(n - 1/24), C = pi sqrt(2/3) and mu_k = C lam / k,
    p(n) = C / (2 sqrt(6) pi lam^2) sum_k S_k (cosh mu_k - sinh mu_k / mu_k),
    where Selberg's S_k = sum (-1)^l cos(pi (6l + 1) / (6k)) runs over the
    0 <= l < 2k with (3l^2 + l)/2 = -n mod k (so A_k(n) = sqrt(k/3) S_k).
    Term k is at most 2k e^mu_k, so it is taken at its own precision, the
    digit count of e^mu_k plus 15, and the terms are summed at the precision
    of term 1.  An error in mu_k is magnified by mu_k in cosh, so term k is off
    by at most ~2k (1 + mu_k) 1e-15 in absolute terms; over the K terms, after
    the prefactor (below 0.1 for n >= 2), that is ~1e-16 K (K + 1 + 2 mu_1),
    below 1e-6 for n <= 1e9.  Lehmer's remainder bound adds less than 1/4, so
    rounding to the nearest integer is exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return 1
    terms = _rademacher_terms(n)
    mu_1 = math.pi * math.sqrt(2 / 3) * math.sqrt(n - 1 / 24)
    with mpmath.workdps(int(mu_1 / math.log(10)) + 15):
        lam = mpmath.sqrt(mpmath.mpf(24 * n - 1) / 24)
        C = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
        total = mpmath.mpf(0)
        for k in range(1, terms + 1):
            with mpmath.workdps(int(mu_1 / (k * math.log(10))) + 15):
                s_k = sum((-1) ** l * mpmath.cospi(mpmath.mpf(6 * l + 1) / (6 * k))
                          for l in range(2 * k) if ((3 * l * l + l) // 2 + n) % k == 0)
                mu = C * lam / k
                term = s_k * (mpmath.cosh(mu) - mpmath.sinh(mu) / mu) if s_k else 0
            total += term
        return int(mpmath.nint(C * total / (2 * mpmath.sqrt(6) * mpmath.pi * lam ** 2)))
