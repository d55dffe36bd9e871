"""Exact dimensions, exact rational measures and partition counting.

Everything here is integer or rational arithmetic: dimensions of the
symmetric-group representation V, the GL(N) highest-weight representation W
and the isotypic component E = V (x) W, the Plancherel and Schur-Weyl
probabilities, iterative enumeration of diagrams with bounded height, and the
pentagonal-number recurrence for the partition function p(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

import mpmath

from .diagrams import Cell, Partition, cells, hook_length

__all__ = [
    "MeasureKind",
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


class MeasureKind(Enum):
    PLANCHEREL = "plancherel"
    SCHUR_WEYL = "schur-weyl"


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
    """An exact rational probability with its defining context."""

    value: Fraction
    kind: MeasureKind
    n: int
    N: int | None = None

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


def _exact_ratio(numer_factors: list[int], denom_factors: list[int]) -> int:
    """Product of numerator factors divided by denominator factors.

    Accumulates both sides with incremental gcd reduction so intermediate
    integers stay near the size of the final quotient.
    """
    num = 1
    den = 1
    for a, b in zip(numer_factors, denom_factors):
        num *= a
        den *= b
        if den.bit_length() > 256:
            g = math.gcd(num, den)
            num //= g
            den //= g
    for a in numer_factors[len(denom_factors):]:
        num *= a
    for b in denom_factors[len(numer_factors):]:
        den *= b
    g = math.gcd(num, den)
    num //= g
    den //= g
    if den != 1:
        raise ArithmeticError("quotient is not integral")
    return num


def dim_sym(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation: n! over the hook product."""
    if lam.n == 0:
        return 1
    return _exact_ratio(list(range(1, lam.n + 1)), hook_lengths(lam))


def dim_gl(lam: Partition, N: int) -> int:
    """Dimension of the GL(N) highest-weight representation for shape lam.

    Zero when the diagram has more than N rows (the factor N + c vanishes).
    """
    if N < 1:
        raise ValueError("N must be positive")
    if lam.height > N:
        return 0
    if lam.n == 0:
        return 1
    return _exact_ratio(shifted_contents(lam, N), hook_lengths(lam))


def dim_iso(lam: Partition, N: int) -> int:
    """Dimension of the isotypic component of the n-fold tensor power of C^N."""
    return dim_sym(lam) * dim_gl(lam, N)


def exact_dims(lam: Partition, N: int) -> ExactDims:
    return ExactDims(dim_sym=dim_sym(lam), dim_gl=dim_gl(lam, N))


def plancherel(lam: Partition) -> ExactMeasure:
    """Plancherel probability (dim V)^2 / n! as an exact rational."""
    d = dim_sym(lam)
    value = Fraction(d * d, math.factorial(lam.n))
    return ExactMeasure(value=value, kind=MeasureKind.PLANCHEREL, n=lam.n)


def schur_weyl_measure(lam: Partition, N: int) -> ExactMeasure:
    """Schur-Weyl probability dim E / N^n as an exact rational."""
    value = Fraction(dim_iso(lam, N), N ** lam.n)
    return ExactMeasure(value=value, kind=MeasureKind.SCHUR_WEYL, n=lam.n, N=N)


def schur_weyl_via_contents(lam: Partition, N: int) -> Fraction:
    """Alternate route: Plancherel times the product of (1 + c/N) over cells."""
    if lam.height > N:
        return Fraction(0)
    prod = Fraction(1)
    for c in shifted_contents(lam, N):
        prod *= Fraction(c, N)
    return plancherel(lam).value * prod


def neg_log_measure_scaled(lam: Partition, N: int, precision: int = 50) -> mpmath.mpf:
    """-ln(P(lam)) / sqrt(n) for the Schur-Weyl measure, from exact integers.

    ``precision`` is the number of significant decimal digits carried.
    """
    p = schur_weyl_measure(lam, N).value
    if p == 0:
        raise ZeroDivisionError(f"measure of {lam} is zero for N={N}")
    with mpmath.workdps(precision):
        val = -(mpmath.log(p.numerator) - mpmath.log(p.denominator)) / mpmath.sqrt(lam.n)
        return +val


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


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, via the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_table(n)[n]


_P_CACHE: list[int] = [1]


def _partition_table(n: int) -> list[int]:
    p = _P_CACHE
    while len(p) <= n:
        m = len(p)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p
