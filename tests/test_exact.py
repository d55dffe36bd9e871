import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ytensor.diagrams import Partition
from ytensor import exact, harness


class TestDims:
    def test_hook_lengths_row_major(self):
        assert sorted(exact.hook_lengths(Partition((2, 1)))) == [1, 1, 3]

    def test_dim_sym_known_values(self):
        # n = 5 irreducible dimensions: 1, 4, 5, 6, 5, 4, 1.
        dims = {
            (5,): 1, (4, 1): 4, (3, 2): 5, (3, 1, 1): 6,
            (2, 2, 1): 5, (2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 1,
        }
        for rows, d in dims.items():
            assert exact.dim_sym(Partition(rows)) == d

    def test_dim_gl_known_values(self):
        assert exact.dim_gl(Partition((3,)), 2) == 4
        assert exact.dim_gl(Partition((2, 1)), 2) == 2
        assert exact.dim_gl(Partition((1, 1, 1)), 2) == 0
        assert exact.dim_gl(Partition((1, 1)), 3) == 3

    def test_dim_iso_product(self):
        lam = Partition((2, 1))
        d = exact.exact_dims(lam, 2)
        assert d.dim_iso == d.dim_sym * d.dim_gl == exact.dim_iso(lam, 2)

    def test_sum_rules_small(self):
        for n, N in [(3, 2), (4, 2), (5, 3), (5, 5)]:
            total = sum(exact.dim_iso(lam, N) for lam in exact.enumerate_diagrams(n, N))
            assert total == N ** n
        for n in [4, 6]:
            total = sum(exact.dim_sym(lam) ** 2 for lam in exact.enumerate_diagrams(n, n))
            assert total == math.factorial(n)


class TestMeasures:
    def test_plancherel_normalizes(self):
        for n in [3, 6]:
            total = sum(exact.plancherel(lam).value for lam in exact.enumerate_diagrams(n, n))
            assert total == 1

    def test_schur_weyl_normalizes(self):
        total = sum(exact.schur_weyl_measure(lam, 3).value
                    for lam in exact.enumerate_diagrams(5, 3))
        assert total == 1

    def test_two_routes_agree(self):
        for lam in exact.enumerate_diagrams(6, 3):
            assert exact.schur_weyl_measure(lam, 3).value == \
                exact.schur_weyl_via_contents(lam, 3)

    def test_measure_range_enforced(self):
        with pytest.raises(ValueError):
            exact.ExactMeasure(Fraction(3, 2), exact.MeasureKind.PLANCHEREL, 1)

    def test_neg_log_measure_trivial(self):
        # single diagram carries full mass when N = 1.
        assert float(exact.neg_log_measure_scaled(Partition((4,)), 1)) == 0.0

    def test_neg_log_measure_matches_float(self):
        lam = Partition((3, 2))
        p = exact.schur_weyl_measure(lam, 3).value
        want = -math.log(p.numerator / p.denominator) / math.sqrt(5)
        assert float(exact.neg_log_measure_scaled(lam, 3)) == pytest.approx(want, rel=1e-12)

    def test_zero_measure_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact.neg_log_measure_scaled(Partition((1, 1, 1)), 2)


class TestEnumeration:
    def test_counts_match_partition_function(self):
        for n in [1, 4, 7, 10]:
            assert len(list(exact.enumerate_diagrams(n, n))) == exact.partition_count(n)

    def test_height_bound_respected(self):
        for lam in exact.enumerate_diagrams(8, 3):
            assert lam.height <= 3

    def test_decreasing_lex_order(self):
        seq = [lam.rows for lam in exact.enumerate_diagrams(6, 4)]
        assert seq == sorted(seq, reverse=True)

    def test_large_n_small_N_is_cheap(self):
        out = list(exact.enumerate_diagrams(100, 2))
        assert len(out) == 51  # (100-k, k) for k = 0..50

    def test_enumeration_csv_shape(self):
        text, _ = harness.cmd_enumerate(3, 2)
        lines = text.strip().split("\n")
        assert lines[0] == "partition,dim_sym,dim_gl,dim_iso,measure_num,measure_den"
        assert len(lines) == 4  # header, (3) and (2,1), sum-rule line


class TestPartitionCount:
    def test_known_values(self):
        assert [exact.partition_count(k) for k in range(10)] == \
            [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert exact.partition_count(100) == 190569292

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exact.partition_count(-1)

    @given(st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_recurrence_consistency(self, n):
        # p(n) counts partitions with at most n parts of n.
        assert exact.partition_count(n) == len(list(exact.enumerate_diagrams(n, n)))
