import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ytensor.diagrams import Partition
from ytensor import checks, exact, harness, rsk


def _neg_log_oracle(lam, N):
    """-ln P / sqrt(n) from the exact rational Schur-Weyl measure, at 50 digits."""
    p = exact.schur_weyl_measure(lam, N).value
    with mpmath.workdps(50):
        return -(mpmath.log(p.numerator) - mpmath.log(p.denominator)) / mpmath.sqrt(lam.n)


def _pentagonal_table(n):
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if (g2 := k * (3 * k + 1) // 2) <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


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

    def test_dims_times_hook_product_at_n_2000(self):
        # Per-cell products, no histogram: dim V * prod h = n!, dim W * prod h = prod (N + c).
        n = 2000
        for N in (10, 45, 200):
            for lam in rsk.sample_schur_weyl(n, N, 0, 2):
                hooks = math.prod(exact.hook_lengths(lam))
                assert exact.dim_sym(lam) * hooks == math.factorial(n)
                assert exact.dim_gl(lam, N) * hooks == math.prod(exact.shifted_contents(lam, N))


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
                checks._schur_weyl_via_contents(lam, 3)

    def test_measure_range_enforced(self):
        with pytest.raises(ValueError):
            exact.ExactMeasure(Fraction(3, 2))

    def test_neg_log_measure_trivial(self):
        # single diagram carries full mass when N = 1.
        assert float(exact.neg_log_measure_scaled(Partition((4,)), 1)) == 0.0

    def test_neg_log_measure_matches_float(self):
        lam = Partition((3, 2))
        p = exact.schur_weyl_measure(lam, 3).value
        want = -math.log(p.numerator / p.denominator) / math.sqrt(5)
        assert float(exact.neg_log_measure_scaled(lam, 3)) == pytest.approx(want, rel=1e-12)

    def test_neg_log_measure_matches_exact_rationals(self):
        for n in range(1, 13):
            for N in range(1, 7):
                for lam in exact.enumerate_diagrams(n, N):
                    got = exact.neg_log_measure_scaled(lam, N)
                    assert isinstance(got, mpmath.mpf)
                    assert abs(got - _neg_log_oracle(lam, N)) < mpmath.mpf("1e-30")

    def test_neg_log_measure_matches_exact_rationals_sampled(self):
        for lam in rsk.sample_schur_weyl(400, 20, 3, 4):
            assert abs(exact.neg_log_measure_scaled(lam, 20)
                       - _neg_log_oracle(lam, 20)) < mpmath.mpf("1e-30")

    def test_neg_log_measure_float_at_n_30000(self):
        (lam,) = rsk.sample_schur_weyl(30000, 173, 0, 1)
        assert float(exact.neg_log_measure_scaled(lam, 173)) == float(_neg_log_oracle(lam, 173))

    def test_alphabet_beyond_int64(self):
        # Every shifted content is above n and above 2**63, beyond int64.
        lam = Partition((5, 2, 2))
        assert abs(exact.neg_log_measure_scaled(lam, 2**70)
                   - _neg_log_oracle(lam, 2**70)) < mpmath.mpf("1e-30")

    def test_zero_measure_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact.neg_log_measure_scaled(Partition((1, 1, 1)), 2)

    def test_nonpositive_N_rejected(self):
        for lam in (Partition((2, 1)), Partition(())):
            with pytest.raises(ValueError):
                exact.neg_log_measure_scaled(lam, 0)


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

    def test_matches_recurrence_up_to_10_4(self):
        table = _pentagonal_table(10 ** 4)
        assert [exact.partition_count(n) for n in range(len(table))] == table

    @given(st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_recurrence_consistency(self, n):
        # p(n) counts partitions with at most n parts of n.
        assert exact.partition_count(n) == len(list(exact.enumerate_diagrams(n, n)))
