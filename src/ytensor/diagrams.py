"""Young diagram core: partitions, cells, hooks, contents and boundary profiles.

A partition is stored as a nonincreasing tuple of positive row lengths.  The
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
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Partition",
    "Cell",
    "Profile",
    "cells",
    "hook_length",
    "profile",
    "profile_from_slopes",
]


@dataclass(frozen=True)
class Cell:
    """A cell (i, j) of a Young diagram; row and column indices start at 1."""

    i: int
    j: int


@dataclass(frozen=True)
class Partition:
    """A Young diagram as a nonincreasing sequence of positive row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(map(int, self.rows))
        object.__setattr__(self, "rows", rows)
        if rows and min(rows) <= 0:
            raise ValueError(f"row lengths must be positive: {rows}")
        if any(map(operator.lt, rows, rows[1:])):
            raise ValueError(f"row lengths must be nonincreasing: {rows}")

    @property
    def n(self) -> int:
        """Total number of cells."""
        return sum(self.rows)

    @property
    def height(self) -> int:
        """Number of (nonempty) rows."""
        return len(self.rows)

    @cached_property
    def conjugate_rows(self) -> tuple[int, ...]:
        """Column lengths, i.e. the rows of the conjugate diagram."""
        if not self.rows:
            return ()
        cols = []
        for j in range(1, self.rows[0] + 1):
            cols.append(sum(1 for r in self.rows if r >= j))
        return tuple(cols)

    def contains(self, cell: Cell) -> bool:
        return 1 <= cell.i <= len(self.rows) and 1 <= cell.j <= self.rows[cell.i - 1]

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
        return ",".join(str(r) for r in self.rows)


def cells(lam: Partition) -> list[Cell]:
    """All cells of the diagram in row-major order."""
    return [Cell(i + 1, j + 1) for i, r in enumerate(lam.rows) for j in range(r)]


def hook_length(lam: Partition, cell: Cell) -> int:
    """Hook length of a cell: arm + leg + 1."""
    if not lam.contains(cell):
        raise ValueError(f"cell {cell} not in partition {lam}")
    arm = lam.rows[cell.i - 1] - cell.j
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
    def corner_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer grid coordinates (X, Y) of the corners of maximal segments.

        Includes both endpoints, where the profile meets |X|.
        """
        xs = [self.x0]
        ys = [abs(self.x0)]
        y = abs(self.x0)
        prev = 0
        for k, s in enumerate(self.slopes):
            y += s
            if k + 1 == len(self.slopes) or self.slopes[k + 1] != s:
                xs.append(self.x0 + k + 1)
                ys.append(y)
            prev = s
        return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Corner coordinates in scaled units."""
        gx, gy = self.corner_grid
        return gx * self.scale, gy * self.scale

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

    def __call__(self, X):
        return self.evaluate(X)

    def area_above_axis(self) -> Fraction:
        """Exact integral of (L - |X|) dX, computed in rational arithmetic."""
        # Integrate per unit grid interval: mean height times width, each in
        # grid units, then convert by the grid area factor 1/(4n).
        total = Fraction(0)
        x = self.x0
        y = abs(self.x0)
        for s in self.slopes:
            ym = Fraction(2 * y + s, 2)  # midpoint height of L
            # midpoint of |X| over [x, x+1]
            if x >= 0:
                am = Fraction(2 * x + 1, 2)
            elif x + 1 <= 0:
                am = -Fraction(2 * x + 1, 2)
            else:  # interval [-? .. ?] never happens: grid steps are unit
                am = Fraction(1, 2)
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
        run = lam.rows[i - 1] - prev
        slopes.extend([1] * run)
        slopes.append(-1)
        prev = lam.rows[i - 1]
    return Profile(n=lam.n, x0=-r, slopes=tuple(slopes))


def profile_from_slopes(n: int, x0: int, slopes: Sequence[int]) -> Profile:
    return Profile(n=n, x0=x0, slopes=tuple(int(s) for s in slopes))
