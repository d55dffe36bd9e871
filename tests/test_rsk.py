import math
from bisect import bisect_left

import numpy as np
import pytest
from scipy import stats

from ytensor.diagrams import Partition
from ytensor import exact, rsk


def longest_increasing_run(letters):
    """Length of the longest weakly increasing subsequence, by quadratic DP."""
    best = [1] * len(letters)
    for i, x in enumerate(letters):
        for j in range(i):
            if letters[j] <= x:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


class TestInsertion:
    def test_constant_word(self):
        assert rsk.rsk_shape_from_letters([1] * 5) == Partition((5,))

    def test_decreasing_word(self):
        assert rsk.rsk_shape_from_letters([3, 2, 1]) == Partition((1, 1, 1))

    def test_increasing_word(self):
        assert rsk.rsk_shape_from_letters(list(range(1, 8))) == Partition((7,))

    def test_small_known_shape(self):
        assert rsk.rsk_shape_from_letters([2, 1]) == Partition((1, 1))
        assert rsk.rsk_shape_from_letters([1, 2, 1]) == Partition((2, 1))

    def test_row_count_bounded_by_alphabet(self):
        rng = rsk.trial_rng(0, 0)
        for _ in range(20):
            letters = rng.integers(1, 4, size=30).tolist()
            assert rsk.rsk_shape_from_letters(letters).height <= 3

    def test_first_row_is_longest_weakly_increasing(self):
        rng = rsk.trial_rng(1, 0)
        for _ in range(20):
            letters = rng.integers(1, 6, size=18).tolist()
            lam = rsk.rsk_shape_from_letters(letters)
            assert lam.rows[0] == longest_increasing_run(letters)


class TestSamplers:
    def test_deterministic_under_seed(self):
        a = rsk.sample_schur_weyl(50, 5, seed=123, count=4)
        b = rsk.sample_schur_weyl(50, 5, seed=123, count=4)
        assert a == b
        assert rsk.sample_schur_weyl(50, 5, seed=124, count=4) != a

    def test_trial_streams_are_prefix_stable(self):
        # trial k does not depend on how many samples were requested.
        long = rsk.sample_schur_weyl(40, 4, seed=9, count=6)
        short = rsk.sample_schur_weyl(40, 4, seed=9, count=3)
        assert long[:3] == short

    def test_sizes_and_heights(self):
        for lam in rsk.sample_schur_weyl(30, 3, seed=0, count=5):
            assert lam.n == 30 and lam.height <= 3
        for lam in rsk.sample_plancherel(25, seed=0, count=5):
            assert lam.n == 25

    def test_schur_weyl_frequencies(self):
        n, N, count = 4, 2, 20000
        obs: dict = {}
        for lam in rsk.sample_schur_weyl(n, N, seed=31, count=count):
            obs[lam] = obs.get(lam, 0) + 1
        chisq, dof = 0.0, -1
        for lam in exact.enumerate_diagrams(n, N):
            e = float(exact.schur_weyl_measure(lam, N).value) * count
            chisq += (obs.get(lam, 0) - e) ** 2 / e
            dof += 1
        assert stats.chi2.sf(chisq, dof) > 1e-3

    def test_plancherel_frequencies(self):
        n, count = 4, 20000
        obs: dict = {}
        for lam in rsk.sample_plancherel(n, seed=17, count=count):
            obs[lam] = obs.get(lam, 0) + 1
        chisq, dof = 0.0, -1
        for lam in exact.enumerate_diagrams(n, n):
            e = float(exact.plancherel(lam).value) * count
            chisq += (obs.get(lam, 0) - e) ** 2 / e
            dof += 1
        assert stats.chi2.sf(chisq, dof) > 1e-3

    def test_dump_format(self):
        samples = rsk.sample_schur_weyl(10, 2, seed=5, count=3)
        text = rsk.sample_dump(samples, 10, 2, 5)
        lines = text.strip().split("\n")
        assert lines[0] == "# n=10 N=2 seed=5 count=3"
        assert len(lines) == 4
        assert Partition.parse(lines[1]).n == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            rsk.sample_schur_weyl(0, 2, 0, 1)
        with pytest.raises(ValueError):
            rsk.sample_plancherel(5, 0, 0)
