"""Tests for the Section IV.C cache-efficient parallel sort."""

import numpy as np
import pytest

from repro.core.cache_sort import cache_efficient_sort
from repro.errors import InputError
from repro.types import MergeStats


class TestCacheEfficientSort:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("cache", [3, 16, 100, 10_000])
    def test_sorts_random(self, p, cache):
        g = np.random.default_rng(p * 7 + cache)
        x = g.integers(0, 500, 230)
        out = cache_efficient_sort(x, p, cache, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_empty(self):
        out = cache_efficient_sort(np.array([], dtype=int), 2, 8, backend="serial")
        assert len(out) == 0

    def test_single_element(self):
        out = cache_efficient_sort(np.array([42]), 2, 8, backend="serial")
        np.testing.assert_array_equal(out, [42])

    def test_input_smaller_than_cache(self):
        g = np.random.default_rng(0)
        x = g.integers(0, 99, 20)
        out = cache_efficient_sort(x, 2, 1000, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_block_fraction_ablation(self):
        g = np.random.default_rng(1)
        x = g.integers(0, 99, 120)
        for fraction in (2, 3, 4):
            out = cache_efficient_sort(
                x, 2, 30, backend="serial", block_fraction=fraction
            )
            np.testing.assert_array_equal(out, np.sort(x))

    def test_matches_plain_parallel_sort(self):
        from repro.core.merge_sort import parallel_merge_sort

        g = np.random.default_rng(2)
        x = g.integers(0, 50, 199)
        a = cache_efficient_sort(x, 3, 24, backend="serial")
        b = parallel_merge_sort(x, 3, backend="serial")
        np.testing.assert_array_equal(a, b)

    def test_input_not_mutated(self):
        x = np.array([5, 4, 3, 2, 1])
        x0 = x.copy()
        cache_efficient_sort(x, 2, 3, backend="serial")
        np.testing.assert_array_equal(x, x0)

    def test_stats_accumulate(self):
        stats = MergeStats()
        g = np.random.default_rng(3)
        x = g.integers(0, 99, 64)
        cache_efficient_sort(
            x, 2, 16, backend="serial", stats=stats
        )
        assert stats.moves > 0

    def test_validation(self):
        with pytest.raises(InputError):
            cache_efficient_sort(np.array([1]), 0, 8)
        with pytest.raises(InputError):
            cache_efficient_sort(np.array([1]), 1, 0)
