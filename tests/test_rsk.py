import hashlib
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter

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


def kernel_shapes(words):
    return rsk._shared_partitions(rsk._row_lengths(words), {})


class TestWordKernel:
    # The kernel _row_lengths against the per-letter bisect loop.

    @pytest.mark.parametrize("n, N", [(n, N) for n in range(1, 8) for N in (1, 2, 3)]
                             + [(n, N) for n in range(1, 6) for N in (4, 5)])
    def test_every_word(self, n, N):
        words = np.array(list(itertools.product(range(1, N + 1), repeat=n)))
        assert kernel_shapes(words) == bisect_shapes(words)

    @pytest.mark.parametrize("n, N", [(1, 1), (9, 1), (1, 6), (4, 9), (12, 40), (6, 6), (25, 25)],
                             ids=["n=N=1", "N=1", "n=1", "N>n", "N>>n", "N=n", "N=n=25"])
    def test_edge_cases(self, n, N):
        words = np.random.default_rng(n * 100 + N).integers(1, N + 1, size=(50, n))
        assert kernel_shapes(words) == bisect_shapes(words)

    def test_random_words(self):
        words = np.random.default_rng(7).integers(1, 46, size=(4, 2000))
        assert kernel_shapes(words) == bisect_shapes(words)

    def test_one_long_word(self):
        word = np.random.default_rng(8).integers(1, 174, size=(1, 30_000))
        assert kernel_shapes(word) == bisect_shapes(word)

    @given(st.integers(1, 10).flatmap(lambda N: st.lists(
        st.lists(st.integers(1, N), min_size=1, max_size=40), min_size=1, max_size=4)))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisect_loop(self, words):
        n = min(map(len, words))
        words = np.array([w[:n] for w in words])
        assert kernel_shapes(words) == bisect_shapes(words)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 2**14 - 1, 2**14, 2**14 + 1])
    def test_sentinel_mask_at_bit_length_edges(self, n):
        # The keys are group << n.bit_length() | position and the sentinel is
        # the all-ones position, so these n are where the shift and the mask change.
        for N in (1, 3, 40):
            words = np.random.default_rng(n * 100 + N).integers(1, N + 1, size=(max(2, 64 // n), n))
            assert kernel_shapes(words) == bisect_shapes(words)

    @pytest.mark.parametrize("N", [10**5, 2**31 + 11, 2**63 - 1])
    def test_large_alphabet_takes_at_most_n_plus_height_passes(self, monkeypatch, N):
        # One searchsorted per pass and one for each stage's lengths: row 0
        # takes at most n passes alone, rows 1.. at most n + height - 1.  The
        # batch has far more distinct letters than a word has positions.
        words = np.random.default_rng(N % 1000).integers(1, N, size=(500, 6), dtype=np.int64)
        expected = bisect_shapes(words)
        searchsorted, calls = np.searchsorted, []
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: calls.append(1) or searchsorted(*args, **kw))
        assert kernel_shapes(words) == expected
        assert len(calls) <= 2 * 6 + max(lam.height for lam in expected) + 1

    @pytest.mark.parametrize("word, rows", [
        (np.tile(np.arange(7, 0, -1), 30), (30,) * 7),
        (np.arange(1, 41), (40,)),
        (np.arange(40, 0, -1), (1,) * 40),
        (np.repeat(np.arange(1, 6), 8), (40,)),
    ], ids=["rectangle", "sorted", "reversed", "sorted-blocks"])
    def test_rows_filled_to_their_caps(self, word, rows):
        # Rows 1.. get min(n // (i + 1), lambda_0) slots.  (7, ..., 1) repeated
        # 30 times fills each of its 7 rows to lambda_0 = 30; a sorted word is
        # one row of n, a reversed one a column of n rows of one cell each.
        words = np.vstack((word, word[::-1]))
        assert kernel_shapes(word[None]) == [Partition(rows)] == bisect_shapes(word[None])
        assert kernel_shapes(words) == bisect_shapes(words)

    def test_first_row_caps_the_kernel_memory(self):
        # Row 0 runs alone and caps rows 1..: the seed-0 word at (3e4, 173),
        # whose first row holds 505 cells, peaks at 0.88 MB, where a table
        # giving every row i its n // (i + 1) slots peaks at 1.34 MB.
        word = np.empty((1, 30_000), dtype=np.uint8)
        rsk._draw_letters(0, np.arange(1), 30_000, 173, word)
        tracemalloc.start()
        try:
            lengths = rsk._row_lengths(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lengths[0, 0] == 505 and lengths.sum() == 30_000
        assert peak < 1.0e6

    def test_chunked_calls_match_one_call(self, monkeypatch):
        one_call = rsk.sample_schur_weyl(30, 4, seed=3, count=25)
        monkeypatch.setattr(rsk, "_KERNEL_LETTERS", 70)  # two words per call
        assert rsk.sample_schur_weyl(30, 4, seed=3, count=25) == one_call

    def test_equal_shapes_share_one_partition_across_batches(self):
        samples = rsk.sample_schur_weyl(4, 2, 0, 20000)  # two draw batches
        assert len({id(p) for p in samples}) == len(set(samples))


class TestDistinctWords:
    # When a batch has room for every word over 1..N, the kernel sees each drawn word once.

    @pytest.mark.parametrize("n, N", [(4, 2), (3, 3), (2, 5)])
    @pytest.mark.parametrize("spare", [0, -1], ids=["rows=N^n", "rows=N^n-1"])
    def test_batch_of_word_space_size(self, monkeypatch, n, N, spare):
        rows = N ** n + spare
        monkeypatch.setattr(rsk, "_KERNEL_LETTERS", rows * n)
        assert rsk._word_space_fits(n, N, rows) == (spare == 0)
        count = 5 * rows + 3  # full batches and a short last one
        reference = bisect_shapes(reference_words(6, n, N, range(count)))
        assert rsk.sample_schur_weyl(n, N, 6, count) == reference

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_one_letter(self, n):
        assert rsk._word_space_fits(n, 1, 1)
        samples = rsk.sample_schur_weyl(n, 1, 2, 300)
        assert samples == [Partition((n,))] * 300
        assert len({id(p) for p in samples}) == 1

    @pytest.mark.parametrize("n, N, count", [(4, 2, 20000), (5, 3, 3000), (6, 3, 5000), (3, 1, 50)])
    def test_kernel_sees_at_most_the_word_space(self, monkeypatch, n, N, count):
        kernel, seen = rsk._row_lengths, []

        def spy(words):
            seen.append(len(words))
            return kernel(words)

        monkeypatch.setattr(rsk, "_row_lengths", spy)
        samples = rsk.sample_schur_weyl(n, N, 8, count)
        assert samples == bisect_shapes(reference_words(8, n, N, range(count)))
        assert seen and max(seen) <= N ** n
        assert len({id(p) for p in samples}) == len(set(samples))

    @pytest.mark.parametrize("n, N, count", [(4, 2, 20000), (5, 3, 3000), (6, 3, 5000)])
    def test_word_space_table_built_once(self, monkeypatch, n, N, count):
        # One kernel call per sample_schur_weyl call, on all N**n words, however many batches.
        kernel, seen = rsk._row_lengths, []
        monkeypatch.setattr(rsk, "_row_lengths", lambda words: seen.append(len(words)) or kernel(words))
        samples = rsk.sample_schur_weyl(n, N, 5, count)
        assert seen == [N ** n]
        assert samples == bisect_shapes(reference_words(5, n, N, range(count)))

    @given(n=st.integers(1, 6), N=st.integers(1, 5), seed=st.integers(0, 2**64 - 1),
           copies=st.integers(0, 2), offset=st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_around_the_word_space_size(self, n, N, seed, copies, offset):
        count = max(1, copies * N ** n + offset)  # below, at and above N**n rows
        samples = rsk.sample_schur_weyl(n, N, seed, count)
        assert samples == bisect_shapes(reference_words(seed, n, N, range(count)))
        assert len({id(p) for p in samples}) == len(set(samples))

    @pytest.mark.parametrize("n, N", [(4, 2), (5, 3), (6, 3)])
    @pytest.mark.parametrize("batches", [1, 2], ids=["rows+1", "2rows+1"])
    def test_words_next_to_a_table_batch_boundary(self, monkeypatch, n, N, batches):
        # Word-table batches hold _TABLE_LETTERS // n rows; the trials on
        # either side of each boundary draw their own streams.
        rows, seed = rsk._TABLE_LETTERS // n, 12
        count = batches * rows + 1
        draw, drawn = rsk._draw_letters, {}

        def spy(seed_, trials, n_, N_, out):
            draw(seed_, trials, n_, N_, out)
            drawn.update(zip(trials.tolist(), out.tolist()))

        monkeypatch.setattr(rsk, "_draw_letters", spy)
        samples = rsk.sample_schur_weyl(n, N, seed, count)
        assert len(samples) == len(drawn) == count
        for edge in range(rows, count, rows):
            for k in range(edge - 2, min(edge + 2, count)):
                word = rsk.trial_rng(seed, k).integers(1, N + 1, size=n).tolist()
                assert drawn[k] == word
                assert samples[k] == rsk.rsk_shape_from_letters(word)

    def test_table_batches_are_sized_by_their_own_budget(self, monkeypatch):
        draw, batches = rsk._draw_letters, []
        monkeypatch.setattr(rsk, "_draw_letters",
                            lambda seed, trials, n, N, out: batches.append(len(trials))
                            or draw(seed, trials, n, N, out))
        rsk.sample_schur_weyl(4, 2, 0, 20000)
        assert batches == [rsk._TABLE_LETTERS // 4, 20000 - rsk._TABLE_LETTERS // 4]
        batches.clear()
        rsk.sample_schur_weyl(7, 5, 0, 3000)  # no table: the kernel's budget sizes the batches
        assert batches == [rsk._KERNEL_LETTERS // 7, 3000 - rsk._KERNEL_LETTERS // 7]

    def test_counter_of_samples_makes_no_python_level_call(self):
        # Partition hashes and compares in C, as a tuple.
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            counts = Counter(rsk.sample_schur_weyl(4, 2, 0, 1000))
            for lam in exact.enumerate_diagrams(4, 2):
                counts[lam]
        finally:
            sys.setprofile(None)
        assert not [name for name in calls if name in ("__hash__", "__eq__")]
        assert sum(counts.values()) == 1000 and len(counts) == 3

    def test_larger_word_space_keeps_every_row(self, monkeypatch):
        kernel, seen = rsk._row_lengths, []
        monkeypatch.setattr(rsk, "_row_lengths", lambda words: seen.append(len(words)) or kernel(words))
        rsk.sample_schur_weyl(7, 5, 0, 2000)  # 5**7 = 78125 words, 2000 rows
        assert seen == [2000]

    def test_predicate_never_forms_the_power(self):
        start = time.perf_counter()
        assert not rsk._word_space_fits(10**6, 2**62 + 1, rsk._KERNEL_LETTERS)
        assert not rsk._word_space_fits(63, 2**63 - 1, 2**62)
        assert time.perf_counter() - start < 1.0  # the power itself would have 6.2e7 bits


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
        kernel, calls, lock, second = rsk._row_lengths, [], threading.Lock(), threading.Event()

        def second_call_fails(words):
            with lock:
                calls.append(threading.current_thread())
                failing = len(calls) == 2
            if failing:
                second.set()
                raise ArithmeticError("injected")
            second.wait(timeout=10)  # the first call waits for one on the other thread
            return kernel(words)

        monkeypatch.setattr(rsk, "_row_lengths", second_call_fails)
        with pytest.raises(ArithmeticError, match="injected"):
            rsk.sample_schur_weyl(1 << 14, 3, 0, 12)
        # The calling thread draws batches too, and once a batch fails no new
        # one starts: each of the 2 threads ends with the batch it holds.
        assert threading.main_thread() in calls
        assert len(calls) <= 2 * 2
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("n, pooled", [(8192, False), (8193, True)])
    def test_pool_threshold(self, monkeypatch, n, pooled):
        # per_call = max(1, 2**14 // n): n = 8192 is the last size batched two
        # words at a time, n = 8193 the first that runs one word per thread.
        # At 2 CPUs the calling thread takes one share and a pool of 1 the other.
        pools = []

        class Recorder(rsk.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(rsk, "ThreadPoolExecutor", Recorder)
        reference = bisect_shapes(reference_words(7, n, 5, range(3)))
        for cpus in (2, 1):
            monkeypatch.setattr(rsk, "_usable_cpus", lambda: cpus)
            assert rsk.sample_schur_weyl(n, 5, 7, 3) == reference
        assert pools == ([1] if pooled else [])

    def test_calling_thread_and_two_helpers_keep_trial_order(self, monkeypatch):
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 1)
        one_thread = rsk.sample_schur_weyl(8193, 6, 9, 5)
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 3)
        assert rsk.sample_schur_weyl(8193, 6, 9, 5) == one_thread
        assert one_thread == bisect_shapes(reference_words(9, 8193, 6, range(5)))

    def test_two_words_at_two_cpus_start_one_thread(self, monkeypatch):
        # The calling thread draws one of the words, so only one thread is
        # started, and each started thread holds a malloc arena of its own.
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 2)
        start, started = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        rsk.sample_schur_weyl(30000, 173, 0, 2)
        assert len(started) == 1

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
        # Trial 2**64 - 1 wraps the key bump k1 + W1 in every round.
        trials = np.array([0, 1, 2**32 + 1, 2**64 - 1], dtype=np.uint64)
        blocks = rsk._philox_blocks(seed, trials, 5)
        for k, row in zip(trials, blocks):
            key = np.array([seed % 2**64, k], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(4 * 5))

    @pytest.mark.parametrize("seed, n, N", [
        (4, 6, 1),
        (5, 37, 2**31 + 11),  # about half of all draws rejected: most rows are drawn again
        (41, 2, 2**31 + 11),  # two-letter rows, most of which reject a draw
        (6, 9, 2**32),
        (7, 13, 2**40 + 3),  # whole 64-bit draws, each row from its Generator
        (-1, 7, 3),
        (8, 5, 2**32 - 1),
        (9, 11, 2**32 + 1),
        # n = 8 and 16 fill whole blocks of 32-bit draws: the pass holds no draw past n.
        (10, 8, 3),
        (11, 16, 3),
        (12, 8, 2**31 + 11),
        (13, 16, 2**31 + 11),
        (15, 4, 2),  # threshold (2**32 - N) mod N = 0: no rejection test
    ])
    def test_letters_match_generator_integers(self, seed, n, N):
        count = 30
        out = np.empty((count, n), dtype=np.uint64)
        rsk._draw_letters(seed, np.arange(count), n, N, out)
        assert np.array_equal(out, reference_words(seed, n, N, range(count)))

    @pytest.mark.parametrize("seed, n, N, rejecting", [
        (3, 6, 4, 0),  # N a power of 2 never rejects: the first pass writes one slice
        (14, 2, 2**31 + 11, 3),  # 3 of 8 rows reject a draw: they are drawn again
    ])
    def test_pass_with_and_without_rejections(self, seed, n, N, rejecting):
        count = 8
        raw = rsk._philox_blocks(seed, np.arange(count), 1)
        u = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=-1).reshape(count, -1)
        low = (u * np.uint64(N)) & np.uint64(0xFFFFFFFF)
        assert np.count_nonzero((low[:, :n] < (2**32 - N) % N).any(axis=1)) == rejecting
        out = np.empty((count, n), dtype=np.uint64)
        rsk._draw_letters(seed, np.arange(count), n, N, out)
        assert np.array_equal(out, reference_words(seed, n, N, range(count)))

    @pytest.mark.parametrize("seed, n, trials", [
        (16, 6, range(40)),  # about half of all draws are rejected: every row rejects one
        (0, 2, [0, 1, 6118, 2]),  # trial 6118 rejects its first 11 draws
    ])
    def test_rows_with_a_rejected_draw_redraw_from_their_trial_stream(self, monkeypatch, seed,
                                                                      n, trials):
        # At N = 2**31 + 11 a row whose first n draws hold a rejected one is
        # drawn again from trial_rng(seed, trial), once; the other rows are not.
        N, trials = 2**31 + 11, np.array(trials)
        reference = reference_words(seed, n, N, trials)
        raw = rsk._philox_blocks(seed, trials, 1)
        low = (raw.astype("<u8").view("<u4")[:, :n] * np.uint64(N)) & np.uint64(0xFFFFFFFF)
        rejecting = (low < (2**32 - N) % N).any(axis=1)
        assert rejecting.any()
        trial_rng, built = rsk.trial_rng, []
        monkeypatch.setattr(rsk, "trial_rng",
                            lambda *args: built.append(args) or trial_rng(*args))
        out = np.empty((len(trials), n), dtype=np.uint32)
        rsk._draw_letters(seed, trials, n, N, out)
        assert np.array_equal(out, reference)
        assert built == [(seed, k) for k in trials[rejecting].tolist()]

    @pytest.mark.parametrize("N", [2, 3, 173, 2**31 + 11, 2**32])
    def test_philox_pass_product_of_uint32_draws_is_64_bit(self, monkeypatch, N):
        # Row t's one draw is u[t], a uint32 view of the raw outputs: u * N
        # must not wrap at 2**32.  A rejected row is drawn again, here as 0.
        u = [0, 1, 2**31, 2**32 - 1]
        raw = np.zeros((len(u), 4), dtype=np.uint64)
        raw[:, 0] = u
        monkeypatch.setattr(rsk, "_philox_blocks", lambda seed, trials, blocks: raw)
        redrawn = []

        class Redraw:
            def integers(self, low, high, size):
                assert (low, high) == (1, N + 1)
                return np.zeros(size, dtype=np.uint64)

        monkeypatch.setattr(rsk, "trial_rng",
                            lambda seed, trial: redrawn.append(trial) or Redraw())
        out = np.empty((len(u), 1), dtype=np.uint64)
        rsk._draw_letters(0, np.arange(len(u)), 1, N, out)
        rejected = [t for t, x in enumerate(u) if x * N % 2**32 < (2**32 - N) % N]
        assert redrawn == rejected
        assert out[:, 0].tolist() == [0 if t in rejected else (x * N >> 32) + 1
                                      for t, x in enumerate(u)]

    def test_wide_alphabet_draws_every_row_from_its_trial_stream(self, monkeypatch):
        # Past N = 2**32 numpy takes whole 64-bit draws: no Philox pass runs,
        # and each row is drawn from trial_rng(seed, trial), once, in row order.
        seed, n, N, trials = 17, 5, 2**40 + 3, np.array([3, 0, 2**32 + 1, 7])
        reference = reference_words(seed, n, N, trials)
        monkeypatch.setattr(rsk, "_philox_blocks", lambda *args: pytest.fail("a Philox pass ran"))
        trial_rng, built = rsk.trial_rng, []
        monkeypatch.setattr(rsk, "trial_rng",
                            lambda *args: built.append(args) or trial_rng(*args))
        out = np.empty((len(trials), n), dtype=np.min_scalar_type(N))
        rsk._draw_letters(seed, trials, n, N, out)
        assert np.array_equal(out, reference)
        assert built == [(seed, k) for k in trials.tolist()]

    @pytest.mark.parametrize("n, N", [(4, 2), (6, 3)])
    def test_full_table_batch_matches_trial_streams(self, n, N):
        # One word-table batch of _TABLE_LETTERS letters, the size at which a
        # draw reuses its lane and scratch arrays over many rows.
        rows, seed = rsk._TABLE_LETTERS // n, 21
        out = np.empty((rows, n), dtype=np.min_scalar_type(N))
        rsk._draw_letters(seed, np.arange(rows), n, N, out)
        for k in [0, 1, *range(1024, rows, 1024), rows - 1]:
            assert out[k].tolist() == rsk.trial_rng(seed, k).integers(1, N + 1, size=n).tolist()

    def test_table_batch_draw_footprint(self):
        # A (4, 2) word-table batch holds 16384 rows, and each of its arrays
        # of one uint64 a row is 128 KiB.  A draw holds the Philox lanes and
        # one scratch block of four such arrays each, then the raw outputs and
        # one product: 1.12 MB at its peak, against 1.7-1.8 MB when every
        # step of a product made a new array.
        rows = rsk._TABLE_LETTERS // 4
        trials, out = np.arange(rows), np.empty((rows, 4), dtype=np.uint8)
        tracemalloc.start()
        try:
            rsk._draw_letters(0, trials, 4, 2, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35e6

    def test_long_words_draw_in_one_pass(self, monkeypatch):
        n = 5 * rsk._KERNEL_LETTERS // 2 + 1
        blocks, calls = rsk._philox_blocks, []
        monkeypatch.setattr(rsk, "_philox_blocks",
                            lambda *args: calls.append(args[2]) or blocks(*args))
        out = np.empty((2, n), dtype=np.uint64)
        rsk._draw_letters(3, np.array([4, 9]), n, 173, out)
        assert np.array_equal(out, reference_words(3, n, 173, [4, 9]))
        assert calls == [-(-n // 8)]

    @pytest.mark.parametrize("n", [9, 10])
    def test_each_table_batch_draws_in_one_pass(self, monkeypatch, n):
        # Word-table batches of more than 8 letters once took two Philox passes each.
        draw, blocks, batches, passes = rsk._draw_letters, rsk._philox_blocks, [], []
        monkeypatch.setattr(rsk, "_draw_letters", lambda *args: batches.append(args[1]) or draw(*args))
        monkeypatch.setattr(rsk, "_philox_blocks", lambda *args: passes.append(args[1]) or blocks(*args))
        samples = rsk.sample_schur_weyl(n, 2, 0, 20000)
        assert len(batches) > 1 and len(passes) == len(batches)
        assert all(np.array_equal(p, b) for p, b in zip(passes, batches))
        assert samples[-50:] == bisect_shapes(reference_words(0, n, 2, range(19950, 20000)))

    def test_lone_word_draws_from_its_trial_stream(self, monkeypatch):
        # n = 8193 runs one word per batch on the calling thread and a pool
        # (see test_pool_threshold), and each word still takes one vectorized
        # pass: no Generator is built.
        reference = reference_words(7, 8193, 5, range(3))
        monkeypatch.setattr(rsk, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(rsk, "trial_rng", lambda *args: pytest.fail("a Generator was built"))
        blocks, draw, passes, drawn = rsk._philox_blocks, rsk._draw_letters, [], {}
        lock, second = threading.Lock(), threading.Event()

        def spy_blocks(seed, trials, count):
            with lock:
                passes.append((trials.tolist(), threading.current_thread()))
                if len(passes) == 2:
                    second.set()
            second.wait(timeout=10)  # the first pass waits for one on the other thread
            return blocks(seed, trials, count)

        def spy_draw(seed, trials, n, N, out):
            draw(seed, trials, n, N, out)
            with lock:
                drawn.update(zip(trials.tolist(), out.tolist()))

        monkeypatch.setattr(rsk, "_philox_blocks", spy_blocks)
        monkeypatch.setattr(rsk, "_draw_letters", spy_draw)
        samples = rsk.sample_schur_weyl(8193, 5, 7, 3)
        assert sorted(trials for trials, _ in passes) == [[0], [1], [2]]
        assert threading.main_thread() in {thread for _, thread in passes}
        assert [drawn[k] for k in range(3)] == reference.tolist()
        assert samples == bisect_shapes(reference)

    @pytest.mark.parametrize("n", [100, 8192, 8193])
    def test_lone_word_draws_in_the_vectorized_pass(self, monkeypatch, n):
        # A word alone in its batch takes the Philox pass, however long it is.
        word_3, word_0 = reference_words(5, n, 12, [3]), reference_words(5, n, 12, [0])
        blocks, calls = rsk._philox_blocks, []
        monkeypatch.setattr(rsk, "_philox_blocks", lambda *args: calls.append(args[2]) or blocks(*args))
        monkeypatch.setattr(rsk, "trial_rng", lambda *args: pytest.fail("a Generator was built"))
        out = np.empty((1, n), dtype=np.uint64)
        rsk._draw_letters(5, np.array([3]), n, 12, out)
        assert calls == [-(-n // 8)]
        assert np.array_equal(out, word_3)
        assert rsk.sample_schur_weyl(n, 12, 5, 1) == bisect_shapes(word_0)
        assert len(calls) == 2

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
        shapes = kernel_shapes(words)
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
