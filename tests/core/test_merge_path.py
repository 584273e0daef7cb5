"""Tests for the production partitioner (Theorem 14 machinery)."""

import numpy as np
import pytest

from repro.core.merge_matrix import MergeMatrix, build_merge_path
from repro.core.merge_path import (
    diagonal_bounds,
    diagonal_intersection,
    diagonal_intersections_vectorized,
    max_search_steps,
    partition_at_positions,
    partition_merge_path,
)
from repro.errors import InputError, NotSortedError
from repro.types import MergeStats, PathPoint
from repro.workloads.adversarial import ADVERSARIAL_PAIRS


class TestDiagonalBounds:
    def test_middle_diagonal(self):
        assert diagonal_bounds(3, 5, 5) == (0, 3)

    def test_clamped_by_b(self):
        assert diagonal_bounds(7, 5, 5) == (2, 5)

    def test_zero_diagonal(self):
        assert diagonal_bounds(0, 4, 4) == (0, 0)

    def test_last_diagonal(self):
        assert diagonal_bounds(8, 4, 4) == (4, 4)

    def test_out_of_range_raises(self):
        with pytest.raises(InputError):
            diagonal_bounds(9, 4, 4)
        with pytest.raises(InputError):
            diagonal_bounds(-1, 4, 4)


class TestMaxSearchSteps:
    def test_trivial(self):
        assert max_search_steps(0, 10) == 0

    def test_log_bound(self):
        assert max_search_steps(8, 100) == 4  # ceil(log2(9))
        assert max_search_steps(1, 1) == 1

    def test_symmetric(self):
        assert max_search_steps(5, 9) == max_search_steps(9, 5)


class TestDiagonalIntersection:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_walked_path(self, seed):
        g = np.random.default_rng(seed)
        a = np.sort(g.integers(0, 25, int(g.integers(0, 20))))
        b = np.sort(g.integers(0, 25, int(g.integers(0, 20))))
        path = build_merge_path(a, b)
        for d in range(len(a) + len(b) + 1):
            assert diagonal_intersection(a, b, d) == path[d]

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_matches_walked_path_adversarial(self, name):
        a, b = ADVERSARIAL_PAIRS[name](32)
        path = build_merge_path(a, b)
        for d in range(0, len(a) + len(b) + 1, 7):
            assert diagonal_intersection(a, b, d) == path[d]

    def test_probe_count_respects_theorem_14(self):
        g = np.random.default_rng(9)
        a = np.sort(g.integers(0, 1000, 500))
        b = np.sort(g.integers(0, 1000, 300))
        bound = max_search_steps(len(a), len(b))
        for d in range(0, 801, 13):
            stats = MergeStats()
            diagonal_intersection(a, b, d, stats=stats)
            assert stats.search_probes <= bound

    def test_matches_matrix_proposition_13(self):
        a = np.array([2, 2, 4, 7])
        b = np.array([1, 2, 2, 9])
        m = MergeMatrix(a, b)
        for d in range(9):
            assert diagonal_intersection(a, b, d) == m.path_intersection(d)


class TestVectorizedIntersections:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_scalar(self, seed):
        g = np.random.default_rng(seed)
        a = np.sort(g.integers(0, 100, 80))
        b = np.sort(g.integers(0, 100, 50))
        ds = list(range(0, 131, 3))
        vec = diagonal_intersections_vectorized(a, b, ds)
        for d, i in zip(ds, vec):
            assert diagonal_intersection(a, b, d) == PathPoint(int(i), d - int(i))

    def test_empty_diagonal_list(self):
        a = np.array([1, 2])
        b = np.array([3])
        assert len(diagonal_intersections_vectorized(a, b, [])) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(InputError):
            diagonal_intersections_vectorized(np.array([1]), np.array([2]), [5])

    def test_2d_rejected(self):
        with pytest.raises(InputError):
            diagonal_intersections_vectorized(
                np.array([1]), np.array([2]), np.array([[1]])
            )


class TestPartitionMergePath:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_partition_validates(self, p, sorted_pair_random):
        a, b = sorted_pair_random
        part = partition_merge_path(a, b, p)
        part.validate()
        assert part.p == p

    @pytest.mark.parametrize("p", [2, 3, 7, 12])
    def test_imbalance_at_most_one(self, p):
        g = np.random.default_rng(4)
        a = np.sort(g.integers(0, 999, 451))
        b = np.sort(g.integers(0, 999, 312))
        part = partition_merge_path(a, b, p)
        assert part.max_imbalance <= 1

    def test_p_exceeds_n(self):
        part = partition_merge_path(np.array([1]), np.array([2]), 5)
        part.validate()
        assert part.p == 5
        assert sum(part.segment_lengths) == 2

    def test_empty_inputs(self):
        part = partition_merge_path(
            np.array([], dtype=int), np.array([], dtype=int), 3
        )
        part.validate()
        assert part.segment_lengths == (0, 0, 0)

    def test_p1_single_segment(self):
        a = np.array([1, 3])
        b = np.array([2])
        part = partition_merge_path(a, b, 1)
        assert part.p == 1
        assert part.segments[0].length == 3

    def test_scalar_and_vectorized_agree(self):
        """The partition's scalar searches land where the lockstep
        search does on the same diagonals."""
        g = np.random.default_rng(10)
        a = np.sort(g.integers(0, 50, 64))
        b = np.sort(g.integers(0, 50, 37))
        n = len(a) + len(b)
        for p in (2, 5, 9, 33, 60):
            part = partition_merge_path(a, b, p)
            cuts = [s.out_start for s in part.segments[1:]]
            ivals = diagonal_intersections_vectorized(a, b, cuts)
            assert [s.a_start for s in part.segments[1:]] == ivals.tolist()
            assert part.segments[-1].out_end == n

    @pytest.mark.parametrize("p", [2, 32, 33, 100])
    def test_lockstep_and_scalar_probe_the_same(self, p):
        g = np.random.default_rng(3)
        a = np.sort(g.integers(0, 1000, 5000))
        b = np.sort(g.integers(0, 1000, 3000))
        s_vec = MergeStats()
        part = partition_merge_path(a, b, p)
        cuts = [s.out_start for s in part.segments[1:]]
        diagonal_intersections_vectorized(a, b, cuts, stats=s_vec)
        assert s_vec.search_probes == sum(part.search_steps) > 0

    def test_search_steps_recorded_scalar(self):
        a = np.arange(100)
        b = np.arange(100)
        part = partition_merge_path(a, b, 4)
        assert len(part.search_steps) == 3
        assert all(s <= max_search_steps(100, 100) for s in part.search_steps)

    def test_stats_accumulated(self):
        part = partition_merge_path(np.arange(64), np.arange(64), 4)
        assert sum(part.search_steps) > 0

    def test_rejects_bad_p(self):
        with pytest.raises(InputError):
            partition_merge_path(np.array([1]), np.array([2]), 0)

    def test_rejects_unsorted(self):
        with pytest.raises(NotSortedError):
            partition_merge_path(np.array([2, 1]), np.array([1, 2]), 2)

    def test_segments_cover_adversarial(self):
        for name, make in ADVERSARIAL_PAIRS.items():
            a, b = make(64)
            part = partition_merge_path(a, b, 8)
            part.validate()
            assert part.max_imbalance <= 1, name


class TestPartitionAtPositions:
    def test_explicit_positions(self):
        a = np.arange(10)
        b = np.arange(10)
        part = partition_at_positions(a, b, [5, 15])
        part.validate()
        assert part.segment_lengths == (5, 10, 5)

    def test_rejects_unordered_positions(self):
        with pytest.raises(InputError):
            partition_at_positions(np.arange(5), np.arange(5), [6, 3])

    def test_rejects_out_of_range_positions(self):
        with pytest.raises(InputError):
            partition_at_positions(np.arange(5), np.arange(5), [10])
        with pytest.raises(InputError):
            partition_at_positions(np.arange(5), np.arange(5), [0])

    def test_no_positions_single_segment(self):
        part = partition_at_positions(np.arange(3), np.arange(3), [])
        assert part.p == 1
        part.validate()
