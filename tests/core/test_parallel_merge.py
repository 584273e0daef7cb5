"""Tests for Algorithm 1 across backends, against the reference kernels."""

import numpy as np
import pytest

from repro.backends import SerialBackend, SimulatedBackend, ThreadBackend
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge, merge_partition, parallel_merge
from repro.core.sequential import KERNELS
from repro.errors import InputError, NotSortedError
from repro.types import MergeStats
from repro.workloads.adversarial import ADVERSARIAL_PAIRS

from ..conftest import reference_merge

BACKEND_NAMES = ["serial", "threads", "simulated"]


class TestParallelMergeCorrectness:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_random(self, backend, p, sorted_pair_random):
        a, b = sorted_pair_random
        out = parallel_merge(a, b, p, backend=backend)
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_adversarial(self, name):
        a, b = ADVERSARIAL_PAIRS[name](64)
        out = parallel_merge(a, b, 8, backend="serial")
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("kernel", ["two_pointer", "galloping", "vectorized"])
    def test_kernels(self, kernel):
        """Every reference kernel agrees with the segmented merge."""
        g = np.random.default_rng(2)
        a = np.sort(g.integers(0, 50, 41))
        b = np.sort(g.integers(0, 50, 59))
        out = parallel_merge(a, b, 4, backend="serial")
        np.testing.assert_array_equal(out, KERNELS[kernel](a, b))

    def test_p_larger_than_n(self):
        out = parallel_merge(np.array([3]), np.array([1]), 10, backend="serial")
        np.testing.assert_array_equal(out, [1, 3])

    def test_empty_inputs(self):
        out = parallel_merge(
            np.array([], dtype=int), np.array([], dtype=int), 4, backend="serial"
        )
        assert len(out) == 0

    def test_lists_accepted(self):
        out = parallel_merge([1, 4], [2, 3], 2, backend="serial")
        np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_input_not_mutated(self):
        a = np.array([1, 5, 9])
        b = np.array([2, 6])
        a0, b0 = a.copy(), b.copy()
        parallel_merge(a, b, 3, backend="serial")
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


class TestValidationAndErrors:
    def test_unsorted_raises(self):
        with pytest.raises(NotSortedError):
            parallel_merge(np.array([3, 1]), np.array([2]), 2, backend="serial")

    def test_unsorted_skipped_with_check_false(self):
        # check=False is the caller's contract; result is garbage-in/out
        out = parallel_merge(
            np.array([3, 1]), np.array([2]), 1, backend="serial", check=False
        )
        assert len(out) == 3

    def test_bad_p(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), -1, backend="serial")

    def test_bad_backend_name(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), 1, backend="warp-drive")


class TestBackendInstances:
    def test_reusable_serial_instance(self):
        be = SerialBackend()
        a = np.array([1, 3])
        b = np.array([2, 4])
        for _ in range(3):
            out = parallel_merge(a, b, 2, backend=be)
            np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_thread_backend_context_manager(self):
        with ThreadBackend(max_workers=2) as be:
            out = parallel_merge(np.array([1, 3]), np.array([2]), 2, backend=be)
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_simulated_backend_records_batch(self):
        be = SimulatedBackend()
        parallel_merge(np.arange(100), np.arange(100), 4, backend=be)
        assert be.last_batch is not None
        assert len(be.last_batch.task_times_s) == 4
        assert be.last_batch.total_work_s >= be.last_batch.parallel_time_s


class TestMergePartition:
    def test_precomputed_partition(self):
        a = np.arange(0, 20, 2)
        b = np.arange(1, 21, 2)
        part = partition_merge_path(a, b, 4)
        out = merge_partition(a, b, part, backend=SerialBackend())
        np.testing.assert_array_equal(out, np.arange(20))

    def test_stats_flow_through(self):
        stats = MergeStats()
        a = np.arange(50)
        b = np.arange(50)
        parallel_merge(a, b, 4, backend="serial", stats=stats)
        assert stats.moves == 100
        assert stats.comparisons > 0


class TestTopLevelMerge:
    def test_default_sequential(self):
        np.testing.assert_array_equal(merge([1, 3], [2]), [1, 2, 3])

    def test_parallel_opt_in(self):
        out = merge([1, 3, 5], [2, 4, 6], p=3, backend="serial")
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5, 6])

    def test_stability_ties(self):
        # values equal: A's elements must occupy the earlier slots;
        # detectable via dtype difference (int A, float B promoted).
        out = merge(np.array([5, 5]), np.array([5.0]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])


class TestOversubscription:
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_same_result_any_granularity(self, factor):
        g = np.random.default_rng(factor)
        a = np.sort(g.integers(0, 99, 73))
        b = np.sort(g.integers(0, 99, 61))
        out = parallel_merge(
            a, b, 3, backend="serial", oversubscribe=factor
        )
        np.testing.assert_array_equal(out, reference_merge(a, b))

    def test_segment_count_scales(self):
        a = np.arange(100)
        b = np.arange(100)
        stats = MergeStats()
        parallel_merge(a, b, 2, backend="serial", oversubscribe=4,
                       stats=stats)
        # 8 segments -> 7 interior cuts were searched (vectorized bound)
        assert stats.moves == 200

    def test_validation(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), 2,
                           backend="serial", oversubscribe=0)
