"""Tests for the k-way merge extension."""

import heapq

import numpy as np
import pytest

from repro.core.kway import kway_merge, kway_partition
from repro.errors import InputError, NotSortedError


def heapq_reference(arrays):
    """Ground truth including the array-order tie rule: heapq.merge is
    stable w.r.t. iterator order."""
    return np.array(list(heapq.merge(*[list(a) for a in arrays])))


class TestKwayPartition:
    def test_rows_shape(self):
        arrays = [np.arange(10), np.arange(5), np.arange(7)]
        cuts = kway_partition(arrays, 4)
        assert len(cuts) == 5
        assert cuts[0] == [0, 0, 0]
        assert cuts[-1] == [10, 5, 7]

    def test_balanced_output_ranges(self):
        g = np.random.default_rng(0)
        arrays = [np.sort(g.integers(0, 99, 40)) for _ in range(3)]
        p = 5
        cuts = kway_partition(arrays, p)
        sizes = [sum(cuts[k + 1]) - sum(cuts[k]) for k in range(p)]
        assert max(sizes) - min(sizes) <= 1

    def test_monotone_per_array(self):
        g = np.random.default_rng(1)
        arrays = [np.sort(g.integers(0, 9, 30)) for _ in range(4)]  # many ties
        cuts = kway_partition(arrays, 6)
        for t in range(4):
            col = [row[t] for row in cuts]
            assert col == sorted(col)

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            kway_partition([np.array([3, 1])], 2)

    def test_bad_p(self):
        with pytest.raises(InputError):
            kway_partition([np.array([1])], 0)


class TestKwayMerge:
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_random(self, t, p):
        """Bit for bit the stable sort of the concatenated runs, for
        random, duplicate-heavy and NaN / signed-zero / infinite keys."""
        g = np.random.default_rng(t * 10 + p)
        specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -2.0])
        for draw in (
            lambda size: g.integers(0, 50, size),
            lambda size: g.integers(0, 3, size).astype(np.int32),
            lambda size: g.choice(specials, size),
        ):
            arrays = [
                np.sort(draw(int(g.integers(0, 30))), kind="stable")
                for _ in range(t)
            ]
            out = kway_merge(arrays, p, backend="serial")
            ref = np.sort(np.concatenate(arrays), kind="stable")
            assert out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()

    def test_empty_list(self):
        assert len(kway_merge([], 1)) == 0

    def test_single_array_copied(self):
        a = np.array([1, 2, 3])
        out = kway_merge([a], 2, backend="serial")
        np.testing.assert_array_equal(out, a)
        out[0] = 99
        assert a[0] == 1  # no aliasing

    def test_matches_heapq_with_ties(self):
        arrays = [np.array([1, 5, 5]), np.array([5, 5, 9]), np.array([5])]
        out = kway_merge(arrays, 3, backend="serial")
        np.testing.assert_array_equal(out, heapq_reference(arrays))

    def test_all_empty_arrays(self):
        out = kway_merge([np.array([], dtype=int)] * 3, 2, backend="serial")
        assert len(out) == 0

    def test_dtype_promotion(self):
        out = kway_merge([np.array([1]), np.array([0.5])], 1)
        assert out.dtype == np.float64

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            kway_merge([np.array([2, 1])], 1)

    def test_two_way_matches_parallel_merge(self):
        from repro.core.parallel_merge import parallel_merge

        g = np.random.default_rng(3)
        a = np.sort(g.integers(0, 20, 33))
        b = np.sort(g.integers(0, 20, 27))
        np.testing.assert_array_equal(
            kway_merge([a, b], 4, backend="serial"),
            parallel_merge(a, b, 4, backend="serial"),
        )
