import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ytensor.diagrams import Cell, Partition, hook_length, profile, profile_from_slopes


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

    @given(partitions_strategy())
    def test_hook_multiset_conjugation_invariant(self, lam):
        conj = Partition(lam.conjugate_rows)
        hooks = sorted(hook_length(lam, Cell(i + 1, j + 1))
                       for i, r in enumerate(lam.rows) for j in range(r))
        hooks_conj = sorted(hook_length(conj, Cell(i + 1, j + 1))
                            for i, r in enumerate(conj.rows) for j in range(r))
        assert hooks == hooks_conj


class TestProfile:
    def test_single_box(self):
        prof = profile(Partition((1,)))
        assert prof.x0 == -1
        assert prof.slopes == (1, -1)
        assert prof.evaluate(0.0) == pytest.approx(1.0)
        assert prof.evaluate(5.0) == 5.0

    def test_area_is_exactly_half(self):
        for rows in [(1,), (3, 1), (4, 4, 2, 1), (7,)]:
            assert profile(Partition(rows)).area_above_axis() == Fraction(1, 2)

    @given(partitions_strategy())
    def test_area_and_round_trip(self, lam):
        prof = profile(lam)
        assert prof.area_above_axis() == Fraction(1, 2)
        assert prof.to_partition() == lam

    def test_above_absolute_value(self):
        prof = profile(Partition((3, 2, 2)))
        xs = np.linspace(-2, 2, 101)
        assert np.all(prof.evaluate(xs) >= np.abs(xs) - 1e-12)

    def test_slope_validation(self):
        with pytest.raises(ValueError):
            profile_from_slopes(2, -1, (1, 0, -1))

    def test_corner_csv(self):
        text = profile(Partition((1,))).corner_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "X,L"
        assert len(lines) == 4  # two outer endpoints plus the peak... and start

    def test_evaluate_scalar_vs_array(self):
        prof = profile(Partition((2, 1)))
        xs = np.array([-0.9, 0.0, 0.3])
        arr = prof.evaluate(xs)
        for x, v in zip(xs, arr):
            assert prof.evaluate(float(x)) == pytest.approx(v)
