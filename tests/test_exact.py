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

    def test_one_hook_product_per_diagram(self, monkeypatch):
        calls, hook_lengths = [], exact.hook_lengths
        monkeypatch.setattr(exact, "hook_lengths",
                            lambda lam: calls.append(lam) or hook_lengths(lam))
        harness.cmd_dims(Partition((4, 2, 1)), 3)
        assert calls == [Partition((4, 2, 1))]
        calls.clear()
        harness.cmd_enumerate(6, 3)
        assert calls == list(exact.enumerate_diagrams(6, 3))


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
        # more rows than letters: both routes give measure zero
        for lam in (Partition((1, 1, 1)), Partition((2, 1, 1, 1))):
            assert exact.schur_weyl_measure(lam, 2).value == \
                checks._schur_weyl_via_contents(lam, 2) == 0
        # a record's measures are the module's: Plancherel read at N = 1, Schur-Weyl at N
        for n, N in ((4, 2), (5, 3), (6, 6)):
            for lam in exact.enumerate_diagrams(n, N):
                d = exact.exact_dims(lam, N)
                assert (d.plancherel, d.schur_weyl) == \
                    (exact.plancherel(lam), exact.schur_weyl_measure(lam, N))

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

    @pytest.mark.parametrize("N", [390, 400, 401])
    def test_neg_log_measure_where_contents_straddle_top(self, N, monkeypatch):
        # top = min(n, largest key) = n here, with shifted contents on both
        # sides of it: those up to top go into prime exponents, the rest keep
        # one logarithm each
        (lam,) = rsk.sample_schur_weyl(400, N, 0, 1)
        contents = exact.shifted_contents(lam, N)
        top = min(lam.n, max(contents + exact.hook_lengths(lam)))
        above = {x for x in contents if x > top}
        assert top == 400 and above and min(contents) <= top
        want = _neg_log_oracle(lam, N)
        logs = []
        log = mpmath.log
        monkeypatch.setattr(mpmath, "log", lambda x: logs.append(x) or log(x))
        got = exact.neg_log_measure_scaled(lam, N)
        assert abs(got - want) < mpmath.mpf("1e-30")
        primes = [k for k in range(2, top + 1) if all(k % d for d in range(2, math.isqrt(k) + 1))]
        assert len(logs) <= len(primes) + len(above) + 1

    def test_zero_measure_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact.neg_log_measure_scaled(Partition((1, 1, 1)), 2)

    def test_nonpositive_N_rejected(self):
        for lam in (Partition((2, 1)), Partition(())):
            for route in (exact.neg_log_measure_scaled, exact.exact_dims):
                with pytest.raises(ValueError):
                    route(lam, 0)


def content_moments(measure, n, N):
    """E sum c, E sum c^2 and Var sum c over Y_N^n, the contents c = j - i of the
    cells, as exact rationals under measure(lam)."""
    m1 = m2 = sq = Fraction(0)
    for lam in exact.enumerate_diagrams(n, N):
        p = measure(lam).value
        contents = exact.shifted_contents(lam, 0)
        m1 += p * sum(contents)
        m2 += p * sum(x * x for x in contents)
        sq += p * sum(contents) ** 2
    return m1, m2, sq - m1 * m1


class TestContentMoments:
    """The exact content moments of the Schur-Weyl and Plancherel measures, which
    a sampler's law at large n can be checked against."""

    @pytest.mark.parametrize("n, N", [(6, 2), (7, 3), (9, 4), (10, 5), (12, 3)])
    def test_schur_weyl(self, n, N):
        mean, sq_mean, var = content_moments(lambda lam: exact.schur_weyl_measure(lam, N), n, N)
        assert mean == Fraction(n * (n - 1), 2 * N)
        assert sq_mean == Fraction(n * (n - 1) * (n - 2), 3 * N * N) + Fraction(n * (n - 1), 2)
        assert var == Fraction(n * (n - 1), 2) * (1 - Fraction(1, N * N))

    @pytest.mark.parametrize("n", [6, 9, 11])
    def test_plancherel(self, n):
        # the limit N -> infinity of the Schur-Weyl moments
        assert content_moments(exact.plancherel, n, n) == (0, Fraction(n * (n - 1), 2),
                                                           Fraction(n * (n - 1), 2))


class TestEnumeration:
    def test_counts_match_partition_function(self):
        for n in [1, 4, 7, 10]:
            assert len(list(exact.enumerate_diagrams(n, n))) == exact.partition_count(n)

    def test_height_bound_respected(self):
        for lam in exact.enumerate_diagrams(8, 3):
            assert lam.height <= 3

    @pytest.mark.parametrize("n, N", [(0, 3), (-2, 3), (4, 0)])
    def test_nonpositive_n_or_N_rejected(self, n, N):
        with pytest.raises(ValueError, match="must be positive"):
            next(exact.enumerate_diagrams(n, N))

    def test_decreasing_lex_order(self):
        seq = [lam.rows for lam in exact.enumerate_diagrams(6, 4)]
        assert seq == sorted(seq, reverse=True)

    def test_order_matches_a_brute_force_oracle(self):
        def partitions(n, largest):
            # every partition of n with parts at most largest, in no promised order
            if n == 0:
                yield ()
            for part in range(1, min(n, largest) + 1):
                for rest in partitions(n - part, part):
                    yield (part,) + rest

        for n in range(1, 17):
            every = list(partitions(n, n))
            for N in range(1, n + 2):
                oracle = sorted((rows for rows in every if len(rows) <= N), reverse=True)
                assert [lam.rows for lam in exact.enumerate_diagrams(n, N)] == oracle, (n, N)

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
