"""Young diagram core: partitions, cells, hooks, contents and boundary profiles.

A partition is a ``tuple`` of its positive, nonincreasing row lengths.  The
profile of a diagram is the piecewise-linear boundary of the rotated diagram,
scaled so that its area above ``|X|`` is exactly 1/2.  Corner positions live on
the grid ``k / (2 sqrt(n))``; internally only the integer grid index ``k`` is
stored, so combinatorial checks (area, round trips) can be done in exact
rational arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Partition",
    "Cell",
    "Profile",
    "hook_length",
    "profile",
    "profile_from_slopes",
]


@dataclass(frozen=True)
class Cell:
    """A cell (i, j) of a Young diagram; row and column indices start at 1."""

    i: int
    j: int


class Partition(tuple):
    """A Young diagram: the tuple of its row lengths, positive and nonincreasing.

    Hashing and equality are the tuple's own, in C, so a ``Counter`` or dict
    of sampled shapes makes no Python-level call per element:
    ``hash(Partition(r)) == hash(tuple(r))``, and a partition equals the plain
    tuple of its rows, ``Partition((2, 1)) == (2, 1)``.  It also orders as
    that tuple.  Rows are checked once, in ``__new__``; attributes cannot be
    set.
    """

    def __new__(cls, rows: Iterable[int]) -> "Partition":
        self = super().__new__(cls, map(operator.index, rows))
        if self and min(self) <= 0:
            raise ValueError(f"row lengths must be positive: {self.rows}")
        if any(map(operator.lt, self, self[1:])):
            raise ValueError(f"row lengths must be nonincreasing: {self.rows}")
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Partition is immutable; cannot set {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild from the rows alone, through __new__'s checks; cached values are remade on use.
        return Partition, (self.rows,)

    def __repr__(self) -> str:
        return f"Partition(rows={self.rows!r})"

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The row lengths as a plain tuple, made once per partition."""
        return tuple(self)

    @property
    def n(self) -> int:
        """Total number of cells."""
        return sum(self)

    @property
    def height(self) -> int:
        """Number of (nonempty) rows."""
        return len(self)

    @cached_property
    def conjugate_rows(self) -> tuple[int, ...]:
        """Column lengths, i.e. the rows of the conjugate diagram.

        Columns rows[i] + 1 .. rows[i - 1] have length i (1-based i), so one
        pass from the last row up lists them in O(rows[0] + height).
        """
        cols: list[int] = []
        for i in range(len(self), 0, -1):
            cols += [i] * (self[i - 1] - len(cols))
        return tuple(cols)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form: comma-separated decreasing integers, e.g. "9,7,6"."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty partition string: {text!r}")
        try:
            rows = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad partition string: {text!r}") from exc
        return cls(rows)

    def __str__(self) -> str:
        return ",".join(map(str, self))


def hook_length(lam: Partition, cell: Cell) -> int:
    """Hook length of a cell: arm + leg + 1."""
    if not (1 <= cell.i <= len(lam) and 1 <= cell.j <= lam[cell.i - 1]):
        raise ValueError(f"cell {cell} not in partition {lam}")
    arm = lam[cell.i - 1] - cell.j
    leg = lam.conjugate_rows[cell.j - 1] - cell.i
    return arm + leg + 1


@dataclass(frozen=True)
class Profile:
    """Boundary of the rotated diagram, scaled by sqrt(2n).

    ``slopes[k]`` is the slope (+1 or -1) of L on the grid interval
    ``[x0 + k, x0 + k + 1]`` in units of ``1/(2 sqrt(n))``.  Outside
    ``[x0, x0 + len(slopes)]`` the profile equals ``|X|``.
    """

    n: int
    x0: int
    slopes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("profile requires n >= 1 (scaling is singular at n=0)")
        if any(s not in (-1, 1) for s in self.slopes):
            raise ValueError("profile slopes must be +1 or -1")

    @property
    def scale(self) -> float:
        """Grid step 1/(2 sqrt(n))."""
        return 0.5 / np.sqrt(self.n)

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Scaled coordinates (X, L) of the corners of maximal segments.

        Includes both endpoints, where the profile meets |X|.
        """
        s = np.asarray(self.slopes, dtype=np.int64)
        y = abs(self.x0) + np.concatenate(([0], np.cumsum(s)))
        k = np.unique(np.concatenate(([0], np.flatnonzero(np.diff(s)) + 1, [len(s)])))
        return (self.x0 + k) * self.scale, y[k] * self.scale

    @property
    def support(self) -> tuple[float, float]:
        """Leftmost and rightmost X where L may differ from |X|."""
        return self.x0 * self.scale, (self.x0 + len(self.slopes)) * self.scale

    def evaluate(self, X):
        """Evaluate L(X); returns |X| outside the support.  Accepts arrays."""
        cx, cy = self.corners
        X = np.asarray(X, dtype=float)
        out = np.interp(X, cx, cy)
        outside = (X < cx[0]) | (X > cx[-1])
        out = np.where(outside, np.abs(X), out)
        if out.ndim == 0:
            return float(out)
        return out

    def area_above_axis(self) -> Fraction:
        """Exact integral of (L - |X|) dX, computed in rational arithmetic."""
        # Integrate per unit grid interval: mean height times width, each in
        # grid units, then convert by the grid area factor 1/(4n).
        total = Fraction(0)
        x = self.x0
        y = abs(self.x0)
        for s in self.slopes:
            ym = Fraction(2 * y + s, 2)  # midpoint height of L
            # midpoint of |X| over [x, x+1], which never straddles 0 (x is an integer)
            am = abs(Fraction(2 * x + 1, 2))
            total += ym - am
            y += s
            x += 1
        return total / (4 * self.n)

    def to_partition(self) -> Partition:
        """Reconstruct the partition from the slope sequence."""
        rows: list[int] = []
        x = 0  # horizontal steps so far
        for s in self.slopes:
            if s == 1:
                x += 1
            else:
                rows.append(x)
        rows = [r for r in reversed(rows) if r > 0]
        return Partition(tuple(rows))

    def corner_csv(self) -> str:
        """CSV export: columns X,L at corner points only."""
        cx, cy = self.corners
        lines = ["X,L"]
        lines += [f"{x!r},{y!r}" for x, y in zip(cx.tolist(), cy.tolist())]
        return "\n".join(lines) + "\n"


def profile(lam: Partition) -> Profile:
    """Rotated, sqrt(2n)-scaled boundary profile of a diagram.

    The slope sequence is read off the boundary walk from the bottom-left
    corner (X = -height) to the top-right corner (X = rows[0]), one grid unit
    per cell edge: horizontal edges give slope +1, vertical edges slope -1.
    """
    if lam.n < 1:
        raise ValueError("profile requires a nonempty diagram")
    r = lam.height
    slopes: list[int] = []
    prev = 0
    for i in range(r, 0, -1):
        run = lam[i - 1] - prev
        slopes.extend([1] * run)
        slopes.append(-1)
        prev = lam[i - 1]
    return Profile(n=lam.n, x0=-r, slopes=tuple(slopes))


def profile_from_slopes(n: int, x0: int, slopes: Sequence[int]) -> Profile:
    return Profile(n=n, x0=x0, slopes=tuple(int(s) for s in slopes))
