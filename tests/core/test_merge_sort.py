"""Tests for the Section III parallel merge sort."""

import numpy as np
import pytest

from repro.core.merge_sort import merge_sort_rounds, parallel_merge_sort
from repro.core.sequential import KERNELS
from repro.errors import InputError


class TestParallelMergeSort:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100, 257])
    def test_sorts_random(self, p, n):
        g = np.random.default_rng(n * 31 + p)
        x = g.integers(0, 1000, n)
        out = parallel_merge_sort(x, p, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_sorts_floats(self):
        g = np.random.default_rng(5)
        x = g.random(321)
        out = parallel_merge_sort(x, 4, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_already_sorted(self):
        x = np.arange(64)
        np.testing.assert_array_equal(
            parallel_merge_sort(x, 4, backend="serial"), x
        )

    def test_reverse_sorted(self):
        x = np.arange(64)[::-1].copy()
        np.testing.assert_array_equal(
            parallel_merge_sort(x, 4, backend="serial"), np.arange(64)
        )

    def test_all_duplicates(self):
        x = np.full(50, 3)
        np.testing.assert_array_equal(
            parallel_merge_sort(x, 4, backend="serial"), x
        )

    def test_input_not_mutated(self):
        x = np.array([3, 1, 2])
        x0 = x.copy()
        parallel_merge_sort(x, 2, backend="serial")
        np.testing.assert_array_equal(x, x0)

    def test_threads_backend(self):
        g = np.random.default_rng(9)
        x = g.integers(0, 100, 200)
        out = parallel_merge_sort(x, 4, backend="threads")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_bad_p(self):
        with pytest.raises(InputError):
            parallel_merge_sort(np.array([1]), 0)

    @pytest.mark.parametrize("kernel", ["two_pointer", "vectorized"])
    def test_kernels(self, kernel):
        """The sort agrees with a reference kernel's merge of the sorted
        halves."""
        g = np.random.default_rng(6)
        x = g.integers(0, 9, 60)
        out = parallel_merge_sort(x, 4, backend="serial")
        want = KERNELS[kernel](np.sort(x[:30]), np.sort(x[30:]))
        np.testing.assert_array_equal(out, want)


class TestMergeSortRounds:
    def test_round_count_log2_p(self):
        rounds = merge_sort_rounds(1 << 10, 8)
        assert len(rounds) == 3  # 8 runs -> 4 -> 2 -> 1

    def test_pairs_halve(self):
        rounds = merge_sort_rounds(1 << 12, 16)
        assert [r.pairs for r in rounds] == [8, 4, 2, 1]

    def test_procs_per_pair_grow(self):
        rounds = merge_sort_rounds(1 << 12, 16)
        procs = [r.procs_per_pair for r in rounds]
        assert procs == sorted(procs)
        assert procs[-1] == 16

    def test_p1_no_merge_rounds(self):
        assert merge_sort_rounds(100, 1) == []

    def test_validation(self):
        with pytest.raises(InputError):
            merge_sort_rounds(0, 2)
        with pytest.raises(InputError):
            merge_sort_rounds(10, 0)


class TestRoundInfoDetails:
    def test_run_length_doubles(self):
        rounds = merge_sort_rounds(1 << 10, 8)
        lengths = [r.run_length for r in rounds]
        assert lengths == [128, 256, 512]

    def test_round_indices_sequential(self):
        rounds = merge_sort_rounds(1 << 8, 4)
        assert [r.round_index for r in rounds] == [1, 2]

    def test_n_smaller_than_p(self):
        rounds = merge_sort_rounds(3, 8)
        # 3 runs of 1 -> 1 pair, then 2 runs -> 1 pair
        assert [r.pairs for r in rounds] == [1, 1]
