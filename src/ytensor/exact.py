"""Exact dimensions, exact rational measures and partition counting.

Everything here is integer or rational arithmetic: dimensions of the
symmetric-group representation V, the GL(N) highest-weight representation W
and the isotypic component E = V (x) W, the Plancherel and Schur-Weyl
probabilities, iterative enumeration of diagrams with bounded height, and the
pentagonal-number recurrence for the partition function p(n).
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


def schur_weyl_via_contents(lam: Partition, N: int) -> Fraction:
    """Alternate route: Plancherel times the product of (1 + c/N) over cells."""
    if lam.height > N:
        return Fraction(0)
    prod = Fraction(1)
    for c in shifted_contents(lam, N):
        prod *= Fraction(c, N)
    return plancherel(lam).value * prod


def neg_log_measure_scaled(lam: Partition, N: int) -> mpmath.mpf:
    """-ln(P(lam)) / sqrt(n) for the Schur-Weyl measure, from exact integers.

    The logarithms are taken at 50 significant decimal digits.
    """
    p = schur_weyl_measure(lam, N).value
    if p == 0:
        raise ZeroDivisionError(f"measure of {lam} is zero for N={N}")
    with mpmath.workdps(50):
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
