import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ytensor.diagrams import Cell, Partition, Profile, hook_length, profile


def partitions_strategy(max_rows=8, max_part=12):
    return st.lists(st.integers(1, max_part), min_size=1, max_size=max_rows).map(
        lambda xs: Partition(tuple(sorted(xs, reverse=True)))
    )


class TestPartition:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Partition((1, 2))
        with pytest.raises(ValueError, match="nonincreasing"):
            Partition((3, 1, 2))

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError, match="positive"):
            Partition((3, 0))
        # Positivity is checked before order.
        with pytest.raises(ValueError, match="positive"):
            Partition((-1, 2))

    def test_rejects_non_integer_rows(self):
        with pytest.raises(TypeError):
            Partition((2.7, 1))
        with pytest.raises(TypeError):
            Partition(np.array([3.0, 1.0]))

    def test_accepts_numpy_integers(self):
        lam = Partition(np.array([3, 1], dtype=np.int64))
        assert lam.rows == (3, 1) and all(type(r) is int for r in lam.rows)
        assert Partition((np.int32(2), 1)) == Partition((2, 1))

    def test_basic_attributes(self):
        lam = Partition((4, 2, 1))
        assert lam.n == 7
        assert lam.height == 3
        assert lam.conjugate_rows == (3, 2, 1, 1)

    def test_parse_round_trip(self):
        lam = Partition.parse("9,7,6")
        assert lam.rows == (9, 7, 6)
        assert Partition.parse(str(lam)) == lam

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Partition.parse("a,b")
        with pytest.raises(ValueError):
            Partition.parse("")

    def test_equal_partitions_hash_equal(self):
        a, b = Partition((3, 1, 1)), Partition(np.array([3, 1, 1]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert repr(a) == "Partition(rows=(3, 1, 1))"
        assert hash(Partition(())) == hash(Partition([]))

    @pytest.mark.parametrize("rows", [(), (1,), (2, 1), (5, 2, 2, 1), (3,) * 7])
    def test_is_the_tuple_of_its_rows(self, rows):
        # A Partition hashes, compares and orders as the plain tuple of its rows.
        lam = Partition(rows)
        assert isinstance(lam, tuple) and lam == rows and rows == lam
        assert hash(lam) == hash(rows) and {rows: 1}[lam] == 1
        assert (lam < rows + (1,)) and lam != list(rows)
        assert Partition((2, 1)) == (2, 1)

    def test_hash_and_equality_are_the_tuples_c_slots(self):
        # A Python-level __hash__ or __eq__ would be called once per Counter element.
        assert Partition.__hash__ is tuple.__hash__
        assert Partition.__eq__ is tuple.__eq__

    def test_rows_is_a_plain_tuple_made_once(self):
        lam = Partition(np.array([4, 4, 1]))
        assert type(lam.rows) is tuple and lam.rows == (4, 4, 1)
        assert lam.rows is lam.rows

    def test_immutable(self):
        lam = Partition((2, 1))
        for name in ("rows", "conjugate_rows", "other"):
            with pytest.raises(AttributeError):
                setattr(lam, name, (3,))
        assert lam.rows == (2, 1) and lam.conjugate_rows == (2, 1)

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_hash_and_equality(self, round_trip):
        lam = Partition((5, 2, 2, 1))
        lam.conjugate_rows  # a cached value rides along or is rebuilt, never stale
        back = round_trip(lam)
        assert back == lam and hash(back) == hash(lam)
        assert back.conjugate_rows == lam.conjugate_rows
        assert len({lam, back}) == 1

    @given(partitions_strategy())
    def test_conjugate_involution(self, lam):
        conj = Partition(lam.conjugate_rows)
        assert Partition(conj.conjugate_rows) == lam
        assert conj.n == lam.n


class TestHooks:
    def test_hooks_of_staircase(self):
        # hooks of (2,1): corner cell has arm 1, leg 1.
        lam = Partition((2, 1))
        assert hook_length(lam, Cell(1, 1)) == 3
        assert hook_length(lam, Cell(1, 2)) == 1
        assert hook_length(lam, Cell(2, 1)) == 1

    def test_hook_outside_raises(self):
        with pytest.raises(ValueError):
            hook_length(Partition((2, 1)), Cell(2, 2))

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (3, 1), (1, 3), (2, 2), (-1, 1)])
    def test_hook_of_each_outside_cell_raises(self, i, j):
        with pytest.raises(ValueError, match="not in partition"):
            hook_length(Partition((2, 1)), Cell(i, j))

    @given(partitions_strategy())
    def test_hook_multiset_conjugation_invariant(self, lam):
        conj = Partition(lam.conjugate_rows)
        hooks = sorted(hook_length(lam, Cell(i + 1, j + 1))
                       for i, r in enumerate(lam.rows) for j in range(r))
        hooks_conj = sorted(hook_length(conj, Cell(i + 1, j + 1))
                            for i, r in enumerate(conj.rows) for j in range(r))
        assert hooks == hooks_conj


def slope_walk_corners(lam):
    """Corners of the boundary walk from (-height, height), one grid unit per
    cell edge: slope +1 along a row's horizontal edges, -1 up each vertical one."""
    slopes = []
    prev = 0
    for row in reversed(lam.rows):
        slopes += [1] * (row - prev) + [-1]
        prev = row
    x, y = -lam.height, lam.height
    xs, ys = [x], [y]
    for k, s in enumerate(slopes):
        x, y = x + 1, y + s
        if k + 1 == len(slopes) or slopes[k + 1] != s:
            xs.append(x)
            ys.append(y)
    return tuple(xs), tuple(ys)


def exact_area(prof):
    """Integral of (L - |X|) dX in exact arithmetic, from the integer corners:
    a trapezoid under each segment less X|X|/2 across it, times the grid area
    factor 1/(4n)."""
    total = Fraction(0)
    for x0, x1, y0, y1 in zip(prof.xs, prof.xs[1:], prof.ys, prof.ys[1:]):
        total += Fraction((y0 + y1) * (x1 - x0), 2)
        total -= Fraction(x1 * abs(x1) - x0 * abs(x0), 2)  # integral of |X|
    return total / (4 * prof.n)


class TestProfile:
    def test_empty_diagram_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            profile(Partition(()))

    def test_single_box(self):
        prof = profile(Partition((1,)))
        assert prof.xs == (-1, 0, 1)
        assert prof.ys == (1, 2, 1)
        assert prof.evaluate(0.0) == pytest.approx(1.0)
        assert prof.evaluate(5.0) == 5.0

    def test_area_is_exactly_half(self):
        for rows in [(1,), (3, 1), (4, 4, 2, 1), (7,)]:
            assert exact_area(profile(Partition(rows))) == Fraction(1, 2)

    @given(partitions_strategy())
    def test_area_and_slope_walk(self, lam):
        prof = profile(lam)
        assert exact_area(prof) == Fraction(1, 2)
        assert (prof.xs, prof.ys) == slope_walk_corners(lam)

    def test_above_absolute_value(self):
        prof = profile(Partition((3, 2, 2)))
        xs = np.linspace(-2, 2, 101)
        assert np.all(prof.evaluate(xs) >= np.abs(xs) - 1e-12)

    @pytest.mark.parametrize("n, xs, ys", [
        (0, (-1, 0, 1), (1, 2, 1)),    # n = 0
        (1, (-1, 0, 1), (1, 2)),       # lengths differ
        (1, (0,), (0,)),               # one point
        (1, (-1, 0, 1), (2, 3, 2)),    # ends off |X|
        (1, (-1, 1, 2), (1, 2, 2)),    # slope 1/2, then 0
        (1, (-1, -1, 0, 1), (1, 1, 2, 1)),  # zero width
        (1, (1, 0, -1), (1, 2, 1)),    # negative width
        (1, (-2, 0, 2), (2, 4, 2)),    # 4 cells, not 1
        (4, (-1, 0, 1), (1, 2, 1)),    # 1 cell, not 4
    ], ids=["n0", "lengths", "one_point", "ends_off_axis", "slope", "zero_width",
            "negative_width", "too_many_cells", "too_few_cells"])
    def test_bad_corners_rejected(self, n, xs, ys):
        with pytest.raises(ValueError):
            Profile(n, xs, ys)

    def test_evaluate_scalar_vs_array(self):
        prof = profile(Partition((2, 1)))
        xs = np.array([-0.9, 0.0, 0.3])
        arr = prof.evaluate(xs)
        for x, v in zip(xs, arr):
            assert prof.evaluate(float(x)) == pytest.approx(v)
