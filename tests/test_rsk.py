import hashlib
import json
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

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1])
    @pytest.mark.parametrize("n, N", [(4, 2), (5, 3), (50, 5)])
    def test_schur_weyl_draws_stream_k_of_trial_rng(self, seed, n, N):
        # An odd n leaves a buffered half of a 64-bit draw behind; the next
        # trial must not see it.
        count = 40
        reference = [rsk.rsk_shape_from_letters(
            rsk.trial_rng(seed, k).integers(1, N + 1, size=n).tolist()) for k in range(count)]
        assert rsk.sample_schur_weyl(n, N, seed, count) == reference

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1])
    @pytest.mark.parametrize("n", [5, 8])
    def test_plancherel_draws_stream_k_of_trial_rng(self, seed, n):
        count = 40
        reference = [rsk.rsk_shape_from_letters(rsk.trial_rng(seed, k).permutation(n).tolist())
                     for k in range(count)]
        assert rsk.sample_plancherel(n, seed, count) == reference

    @pytest.mark.parametrize("samples, digest", [
        (lambda: rsk.sample_schur_weyl(6, 3, 0, 2000),
         "4d9abd62cfffe01a3d048abff817358f3c339a05d50c5b8e98421299893063c4"),
        (lambda: rsk.sample_schur_weyl(2000, 45, 1, 3),
         "8319e4d3838aecbbe463483d1efe3fde73548228d3e755360657e445c616e2b9"),
        (lambda: rsk.sample_plancherel(8, 0, 500),
         "6618b1c02107ad2bc164573aadde21511ab3f399f4bec39ec24b3e3b77e28209"),
    ], ids=["schur-weyl-6-3", "schur-weyl-2000-45", "plancherel-8"])
    def test_golden_streams(self, samples, digest):
        # Digests of the shapes the samplers produced when they still built
        # one Generator per trial; any change to a (seed, trial) stream shows.
        rows = json.dumps([lam.rows for lam in samples()])
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

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
