"""Tests for Algorithm 2 (Segmented Parallel Merge)."""

import numpy as np
import pytest

from repro.core.segmented_merge import (
    block_length,
    plan_segments,
    segmented_parallel_merge,
)
from repro.errors import InputError, NotSortedError
from repro.types import MergeStats
from repro.workloads.adversarial import ADVERSARIAL_PAIRS

from ..conftest import reference_merge


class TestBlockLength:
    def test_paper_rule_c_over_3(self):
        assert block_length(999) == 333

    def test_fraction_ablation(self):
        assert block_length(1000, fraction=2) == 500
        assert block_length(1000, fraction=4) == 250

    def test_minimum_one(self):
        assert block_length(2) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            block_length(0)
        with pytest.raises(InputError):
            block_length(12, fraction=0)


class TestPlanSegments:
    def test_blocks_tile_output(self):
        g = np.random.default_rng(1)
        a = np.sort(g.integers(0, 100, 37))
        b = np.sort(g.integers(0, 100, 53))
        plans = list(plan_segments(a, b, 3, L=10))
        assert plans[0].block.out_start == 0
        for prev, cur in zip(plans, plans[1:]):
            assert cur.block.out_start == prev.block.out_end
            assert cur.block.a_start == prev.block.a_end
            assert cur.block.b_start == prev.block.b_end
        assert plans[-1].block.out_end == 90

    def test_lemma_15_block_consumption_bounded_by_L(self):
        g = np.random.default_rng(2)
        a = np.sort(g.integers(0, 40, 60))
        b = np.sort(g.integers(0, 40, 60))
        L = 7
        for plan in plan_segments(a, b, 2, L):
            assert plan.block.a_len <= L
            assert plan.block.b_len <= L
            assert plan.block.length <= L

    def test_intra_block_partitions_validate(self):
        a = np.arange(0, 50, 2)
        b = np.arange(1, 51, 2)
        for plan in plan_segments(a, b, 4, L=8):
            plan.partition.validate()
            assert plan.partition.max_imbalance <= 1

    def test_block_count(self):
        a = np.arange(10)
        b = np.arange(10)
        plans = list(plan_segments(a, b, 2, L=5))
        assert len(plans) == 4  # 20 outputs / 5 per block

    def test_rejects_bad_L(self):
        with pytest.raises(InputError):
            list(plan_segments(np.arange(4), np.arange(4), 2, 0))


class TestSegmentedMergeCorrectness:
    @pytest.mark.parametrize("L", [1, 2, 5, 64, 1000])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_random(self, L, p):
        g = np.random.default_rng(L * 31 + p)
        a = np.sort(g.integers(0, 200, 83))
        b = np.sort(g.integers(0, 200, 67))
        out = segmented_parallel_merge(a, b, p, L=L, backend="serial")
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_adversarial(self, name):
        a, b = ADVERSARIAL_PAIRS[name](48)
        out = segmented_parallel_merge(a, b, 4, L=9, backend="serial")
        np.testing.assert_array_equal(out, reference_merge(a, b))

    def test_cache_elements_parameter(self):
        a = np.arange(0, 60, 2)
        b = np.arange(1, 61, 2)
        out = segmented_parallel_merge(
            a, b, 2, cache_elements=30, backend="serial"
        )
        np.testing.assert_array_equal(out, np.arange(60))

    def test_threads_backend(self):
        a = np.arange(0, 40, 2)
        b = np.arange(1, 41, 2)
        out = segmented_parallel_merge(a, b, 4, L=8, backend="threads")
        np.testing.assert_array_equal(out, np.arange(40))

    def test_same_output_as_basic_parallel_merge(self):
        from repro.core.parallel_merge import parallel_merge

        g = np.random.default_rng(8)
        a = np.sort(g.integers(0, 30, 55))  # duplicates included
        b = np.sort(g.integers(0, 30, 45))
        basic = parallel_merge(a, b, 4, backend="serial")
        spm = segmented_parallel_merge(a, b, 4, L=13, backend="serial")
        np.testing.assert_array_equal(basic, spm)

    def test_empty_inputs(self):
        out = segmented_parallel_merge(
            np.array([], dtype=int), np.array([], dtype=int), 2, L=4,
            backend="serial",
        )
        assert len(out) == 0


class TestSegmentedMergeValidation:
    def test_requires_exactly_one_size_argument(self):
        a, b = np.array([1]), np.array([2])
        with pytest.raises(InputError):
            segmented_parallel_merge(a, b, 1, backend="serial")
        with pytest.raises(InputError):
            segmented_parallel_merge(
                a, b, 1, L=4, cache_elements=12, backend="serial"
            )

    def test_unsorted_raises(self):
        with pytest.raises(NotSortedError):
            segmented_parallel_merge(
                np.array([2, 1]), np.array([3]), 1, L=2, backend="serial"
            )

    def test_stats_accumulate(self):
        stats = MergeStats()
        segmented_parallel_merge(
            np.arange(20), np.arange(20), 2, L=8, backend="serial",
            stats=stats,
        )
        assert stats.moves == 40
