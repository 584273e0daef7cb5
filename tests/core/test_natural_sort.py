"""Tests for the adaptive (natural-run) merge sort."""

import math

import numpy as np
import pytest

from repro.backends import SerialBackend
from repro.core.natural_sort import find_natural_runs, natural_merge_sort
from repro.errors import InputError
from repro.obs import MetricsRegistry
from repro.workloads.generators import nearly_sorted


class TestFindNaturalRuns:
    def test_sorted_is_one_run(self):
        assert find_natural_runs(np.arange(10)) == [0, 10]

    def test_descending_reversed_to_one_run(self):
        x = np.arange(10)[::-1].copy()
        bounds = find_natural_runs(x)
        assert bounds == [0, 10]
        np.testing.assert_array_equal(x, np.arange(10))  # reversed in place

    def test_alternating_runs(self):
        x = np.array([1, 2, 3, 0, 5, 6, 2, 2])
        bounds = find_natural_runs(x.copy())
        assert bounds[0] == 0 and bounds[-1] == 8
        assert len(bounds) == 4  # three runs

    def test_equal_elements_do_not_break_runs(self):
        assert find_natural_runs(np.array([1, 1, 1, 2])) == [0, 4]

    def test_no_reverse_option(self):
        x = np.array([3, 2, 1])
        bounds = find_natural_runs(x.copy(), reverse_descending=False)
        assert bounds == [0, 1, 2, 3]

    def test_empty_and_single(self):
        assert find_natural_runs(np.array([])) == [0, 0]
        assert find_natural_runs(np.array([7])) == [0, 1]


class TestNaturalMergeSort:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 50, 333])
    def test_sorts_random(self, p, n):
        g = np.random.default_rng(n + p)
        x = g.integers(0, 100, n)
        np.testing.assert_array_equal(natural_merge_sort(x, p), np.sort(x))

    def test_sorted_input_fast_path(self):
        x = np.arange(1000)
        reg = MetricsRegistry()
        out = natural_merge_sort(x, 4, metrics=reg)
        np.testing.assert_array_equal(out, x)
        assert reg.value("merge.moves") == 0  # no merging happened at all

    def test_reverse_sorted_fast_path(self):
        x = np.arange(1000)[::-1].copy()
        reg = MetricsRegistry()
        out = natural_merge_sort(x, 4, metrics=reg)
        np.testing.assert_array_equal(out, np.arange(1000))
        assert reg.value("merge.moves") == 0

    def test_nearly_sorted_does_less_work(self):
        n = 4096
        tidy = nearly_sorted(n, 3, swap_fraction=0.002)
        messy = np.random.default_rng(3).permutation(n)
        r_tidy, r_messy = MetricsRegistry(), MetricsRegistry()
        natural_merge_sort(tidy, 1, metrics=r_tidy)
        natural_merge_sort(messy, 1, metrics=r_messy)
        # adaptivity pays
        assert r_tidy.value("merge.moves") < r_messy.value("merge.moves") / 2

    def test_input_not_mutated(self):
        x = np.array([3, 1, 2])
        x0 = x.copy()
        natural_merge_sort(x, 2)
        np.testing.assert_array_equal(x, x0)

    def test_matches_standard_merge_sort(self):
        from repro.core.merge_sort import parallel_merge_sort

        g = np.random.default_rng(9)
        x = g.integers(0, 50, 500)
        np.testing.assert_array_equal(
            natural_merge_sort(x, 4), parallel_merge_sort(x, 4, backend="serial")
        )

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
    def test_one_dispatch_per_round(self, k):
        """k natural runs merge in ceil(log2 k) rounds, each one batch."""
        x = np.concatenate([np.arange(100) for _ in range(k)])
        assert len(find_natural_runs(x.copy())) == k + 1
        be = SerialBackend()
        out = natural_merge_sort(x, 4, backend=be)
        np.testing.assert_array_equal(out, np.sort(x))
        assert be.dispatches == math.ceil(math.log2(k))

    def test_bad_p(self):
        with pytest.raises(InputError):
            natural_merge_sort(np.array([1]), 0)
