import hashlib
import itertools
import json
import math
import sys
import threading
import time
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


def bisect_shapes(words):
    return [rsk.rsk_shape_from_letters(w) for w in np.asarray(words).tolist()]


class TestWordKernel:
    # rsk_shapes_from_words against the per-letter bisect loop.

    @pytest.mark.parametrize("n, N", [(n, N) for n in range(1, 8) for N in (1, 2, 3)]
                             + [(n, N) for n in range(1, 6) for N in (4, 5)])
    def test_every_word(self, n, N):
        words = np.array(list(itertools.product(range(1, N + 1), repeat=n)))
        assert rsk.rsk_shapes_from_words(words) == bisect_shapes(words)

    @pytest.mark.parametrize("n, N", [(1, 1), (9, 1), (1, 6), (4, 9), (12, 40), (6, 6), (25, 25)],
                             ids=["n=N=1", "N=1", "n=1", "N>n", "N>>n", "N=n", "N=n=25"])
    def test_edge_cases(self, n, N):
        words = np.random.default_rng(n * 100 + N).integers(1, N + 1, size=(50, n))
        assert rsk.rsk_shapes_from_words(words) == bisect_shapes(words)

    def test_random_words(self):
        words = np.random.default_rng(7).integers(1, 46, size=(4, 2000))
        assert rsk.rsk_shapes_from_words(words) == bisect_shapes(words)

    def test_one_long_word(self):
        word = np.random.default_rng(8).integers(1, 174, size=(1, 30_000))
        assert rsk.rsk_shapes_from_words(word) == bisect_shapes(word)

    @given(st.integers(1, 10).flatmap(lambda N: st.lists(
        st.lists(st.integers(1, N), min_size=1, max_size=40), min_size=1, max_size=4)))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisect_loop(self, words):
        n = min(map(len, words))
        words = np.array([w[:n] for w in words])
        assert rsk.rsk_shapes_from_words(words) == bisect_shapes(words)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 2**14 - 1, 2**14, 2**14 + 1])
    def test_sentinel_mask_at_bit_length_edges(self, n):
        # The keys are group << n.bit_length() | position and the sentinel is
        # the all-ones position, so these n are where the shift and the mask change.
        for N in (1, 3, 40):
            words = np.random.default_rng(n * 100 + N).integers(1, N + 1, size=(max(2, 64 // n), n))
            assert rsk.rsk_shapes_from_words(words) == bisect_shapes(words)

    def test_chunked_calls_match_one_call(self, monkeypatch):
        one_call = rsk.sample_schur_weyl(30, 4, seed=3, count=25)
        monkeypatch.setattr(rsk, "_KERNEL_LETTERS", 70)  # two words per call
        assert rsk.sample_schur_weyl(30, 4, seed=3, count=25) == one_call

    def test_equal_shapes_share_one_partition_across_batches(self):
        samples = rsk.sample_schur_weyl(4, 2, 0, 20000)  # five kernel batches
        assert len({id(p) for p in samples}) == len(set(samples))


def shapes_digest(samples):
    return hashlib.sha256(json.dumps([lam.rows for lam in samples]).encode()).hexdigest()


class TestWordPool:
    # sample_schur_weyl runs one-word batches on a thread pool.

    def test_pooled_words_match_golden_and_one_thread(self, monkeypatch):
        # Three one-word batches, more than the two workers.  The digest is
        # that of the single-threaded sampler before the pool was added.
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 2)
        pooled = rsk.sample_schur_weyl(1 << 14, 128, 4, 3)
        assert shapes_digest(pooled) == \
            "0b4867e8fbaba932c865c4554eec58c15295c6b546759b09f0d0bc60cbe519b1"
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 1)
        assert rsk.sample_schur_weyl(1 << 14, 128, 4, 3) == pooled

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 1)
        one_thread = rsk.sample_schur_weyl(1 << 14, 40, 2, 6)
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 5)
        kernel = rsk._row_lengths

        def after_a_pause(words):  # lets the other workers draw their words meanwhile
            time.sleep(0.01)
            return kernel(words)

        monkeypatch.setattr(rsk, "_row_lengths", after_a_pause)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = rsk.sample_schur_weyl(1 << 14, 40, 2, 6)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == one_thread

    def test_equal_shapes_from_workers_share_one_partition(self, monkeypatch):
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 2)
        samples = rsk.sample_schur_weyl(1 << 14, 1, 0, 4)  # N = 1: every shape is (n,)
        assert samples == [Partition((1 << 14,))] * 4
        assert len({id(p) for p in samples}) == 1

    def test_worker_error_propagates_and_threads_end(self, monkeypatch):
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 2)
        baseline = threading.active_count()
        kernel, calls, lock = rsk._row_lengths, [], threading.Lock()

        def second_call_fails(words):
            with lock:
                calls.append(threading.current_thread())
                failing = len(calls) == 2
            if failing:
                raise ArithmeticError("injected")
            return kernel(words)

        monkeypatch.setattr(rsk, "_row_lengths", second_call_fails)
        with pytest.raises(ArithmeticError, match="injected"):
            rsk.sample_schur_weyl(1 << 14, 3, 0, 4)
        assert threading.main_thread() not in calls
        assert threading.active_count() == baseline

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(rsk.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(rsk.os, "cpu_count", lambda: 8)
        assert rsk._usable_cpus() == 3

    @pytest.mark.parametrize("cpus, usable", [(8, 8), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, cpus, usable):
        # As on macOS and Windows, where os.cpu_count() may also return None.
        monkeypatch.delattr(rsk.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rsk.os, "cpu_count", lambda: cpus)
        assert rsk._usable_cpus() == usable


def reference_words(seed, n, N, trials):
    return np.array([rsk.trial_rng(seed, k).integers(1, N + 1, size=n) for k in trials])


class TestPhilox:
    # The vectorized Philox4x64-10 of sample_schur_weyl against numpy's.

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
    def test_raw_blocks_match_numpy(self, seed):
        trials = np.array([0, 1, 2**32 + 1])
        blocks = rsk._philox_blocks(seed, trials, 1, 5)
        later = rsk._philox_blocks(seed, trials, 3, 2)
        for k, row, tail in zip(trials, blocks, later):
            key = np.array([seed % 2**64, k], dtype=np.uint64)
            raw = np.random.Philox(key=key).random_raw(4 * 5)
            assert np.array_equal(row, raw)
            assert np.array_equal(tail, raw[8:16])

    @pytest.mark.parametrize("seed, n, N", [
        (4, 6, 1),
        (5, 37, 2**31 + 11),  # about half of all draws rejected: most trials draw again
        (6, 9, 2**32),
        (7, 13, 2**40 + 3),  # whole 64-bit draws
        (-1, 7, 3),
        (8, 5, 2**32 - 1),
        (9, 11, 2**32 + 1),
    ])
    def test_letters_match_generator_integers(self, seed, n, N):
        count = 30
        out = np.empty((count, n), dtype=np.uint64)
        rsk._draw_letters(seed, np.arange(count), n, N, out)
        assert np.array_equal(out, reference_words(seed, n, N, range(count)))

    def test_long_word_spans_several_passes(self):
        n = 5 * rsk._KERNEL_LETTERS // 2 + 1
        out = np.empty((2, n), dtype=np.uint64)
        rsk._draw_letters(3, np.array([4, 9]), n, 173, out)
        assert np.array_equal(out, reference_words(3, n, 173, [4, 9]))

    def test_count_spans_several_kernel_batches(self):
        n, N, count = 9, 5, 2 * rsk._KERNEL_LETTERS // 9 + 7
        reference = bisect_shapes(reference_words(11, n, N, range(count)))
        assert rsk.sample_schur_weyl(n, N, 11, count) == reference

    def test_alphabet_bound_of_int64_letters(self):
        # The largest N that Generator.integers' int64 letters allow, and the first it rejects.
        N = 2**63 - 1
        assert rsk.sample_schur_weyl(3, N, 0, 2) == bisect_shapes(reference_words(0, 3, N, range(2)))
        for big in (2**63, 2**64):
            with pytest.raises(ValueError):
                rsk.sample_schur_weyl(3, big, 0, 2)

    def test_equal_shapes_share_one_partition(self):
        words = np.random.default_rng(2).integers(1, 4, size=(300, 6))
        shapes = rsk.rsk_shapes_from_words(words)
        assert shapes == bisect_shapes(words)
        first = {}
        for lam in shapes:
            assert first.setdefault(lam, lam) is lam
        assert len(first) < len(shapes)


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
        (lambda: rsk.sample_schur_weyl(7, 300, 5, 5000),
         "da480149e7912a41492b6067599c3b8e5211d7a5ab921c9f9f819d12d679c0fd"),
    ], ids=["schur-weyl-6-3", "schur-weyl-2000-45", "plancherel-8", "schur-weyl-7-300"])
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
