"""Young diagram core: partitions, cells, hooks, contents and boundary profiles.

A partition is a ``tuple`` of its positive, nonincreasing row lengths.  The
profile L of a diagram is the piecewise-linear boundary of the rotated diagram,
scaled so that its area above ``|X|`` is exactly 1/2.  Every functional of a
profile reads it through L'', a sum of point masses at its corners (Kerov's
interlacing minima and maxima), so a ``Profile`` stores just those corners, as
integer coordinates on the grid ``k / (2 sqrt(n))``; the scaled floats are
made once per profile.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "Partition",
    "Cell",
    "Profile",
    "hook_length",
    "profile",
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
    """Boundary L of the rotated diagram, scaled by sqrt(2n), stored as its corners.

    ``(xs[k], ys[k])`` are the integer coordinates, in units of
    ``1/(2 sqrt(n))``, of the points where L changes slope, with both ends,
    where L meets ``|X|``, included.  L has slope +1 or -1 between neighbouring
    corners and equals ``|X|`` outside ``[xs[0], xs[-1]]``.  The area between
    L and ``|X|`` is that of n cells, 2n in these units.
    """

    n: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("profile requires n >= 1 (scaling is singular at n=0)")
        xs, ys = self.xs, self.ys
        if not (len(xs) == len(ys) >= 2 and ys[0] == abs(xs[0]) and ys[-1] == abs(xs[-1])
                and all(0 < xb - xa == abs(yb - ya)
                        for xa, xb, ya, yb in zip(xs, xs[1:], ys, ys[1:]))):
            raise ValueError("profile corners must join two points of |X| by slopes +-1")
        # each cell is a square of area 2 in these units: twice the area above
        # |X| is the trapezoids' sum less twice the area under |X|
        twice_area = sum((xb - xa) * (ya + yb) for xa, xb, ya, yb in zip(xs, xs[1:], ys, ys[1:]))
        if twice_area - xs[-1] * abs(xs[-1]) + xs[0] * abs(xs[0]) != 4 * self.n:
            raise ValueError(f"profile corners must enclose n = {self.n} cells above |X|")

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Scaled coordinates (X, L) of the corners, both ends included."""
        scale = 0.5 / np.sqrt(self.n)
        return np.array(self.xs) * scale, np.array(self.ys) * scale

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


def profile(lam: Partition) -> Profile:
    """Rotated, sqrt(2n)-scaled boundary profile of a diagram.

    One pass from the last row up, starting at the left end (-height, height):
    row i (1-based) adds the peak (lam_i - i, lam_i + i) where it is longer
    than the row below, and the valley (lam_i - i + 1, lam_i + i - 1) where
    the row above is longer, or where i = 1 (the right end).
    """
    if lam.n < 1:
        raise ValueError("profile requires a nonempty diagram")
    r = lam.height
    corners = [(-r, r)]
    below = 0
    for i in range(r, 0, -1):
        row = lam[i - 1]
        if row > below:
            corners.append((row - i, row + i))
        if i == 1 or lam[i - 2] > row:
            corners.append((row - i + 1, row + i - 1))
        below = row
    return Profile(lam.n, *zip(*corners))
