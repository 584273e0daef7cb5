"""Property-based tests (hypothesis) for the merge kernels and partitioner.

These encode the paper's lemmas as universally-quantified invariants over
random sorted arrays, duplicates included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge_path import (
    diagonal_intersection,
    max_search_steps,
    partition_merge_path,
)
from repro.core.parallel_merge import parallel_merge
from repro.core.segmented_merge import segmented_parallel_merge
from repro.core.sequential import merge_galloping, merge_two_pointer, merge_vectorized
from repro.types import MergeStats

from ..conftest import reference_merge

sorted_ints = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=0, max_size=120
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))

sorted_floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=0,
    max_size=80,
).map(lambda xs: np.array(sorted(xs)))

small_p = st.integers(min_value=1, max_value=16)


class TestKernelProperties:
    @given(a=sorted_ints, b=sorted_ints)
    def test_two_pointer_equals_reference(self, a, b):
        np.testing.assert_array_equal(
            merge_two_pointer(a, b), reference_merge(a, b)
        )

    @given(a=sorted_ints, b=sorted_ints)
    def test_galloping_equals_reference(self, a, b):
        np.testing.assert_array_equal(
            merge_galloping(a, b), reference_merge(a, b)
        )

    @given(a=sorted_ints, b=sorted_ints)
    def test_vectorized_equals_reference(self, a, b):
        np.testing.assert_array_equal(
            merge_vectorized(a, b), reference_merge(a, b)
        )

    @given(a=sorted_floats, b=sorted_floats)
    def test_vectorized_floats(self, a, b):
        np.testing.assert_array_equal(
            merge_vectorized(a, b), reference_merge(a, b)
        )

    @given(a=sorted_ints, b=sorted_ints)
    def test_kernels_mutually_equal(self, a, b):
        out = merge_two_pointer(a, b)
        np.testing.assert_array_equal(out, merge_galloping(a, b))
        np.testing.assert_array_equal(out, merge_vectorized(a, b))

    @given(a=sorted_ints, b=sorted_ints)
    def test_output_sorted_and_permutation(self, a, b):
        out = merge_vectorized(a, b)
        assert np.all(out[:-1] <= out[1:]) if len(out) > 1 else True
        np.testing.assert_array_equal(
            np.sort(out), np.sort(np.concatenate([a, b]))
        )

    @given(a=sorted_ints, b=sorted_ints)
    def test_comparison_count_bounded(self, a, b):
        stats = MergeStats()
        merge_two_pointer(a, b, stats=stats)
        assert stats.comparisons <= max(0, len(a) + len(b) - 1)


class TestPartitionProperties:
    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_partition_tiles_and_balances(self, a, b, p):
        part = partition_merge_path(a, b, p)
        part.validate()
        assert part.max_imbalance <= 1

    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_theorem5_segment_merges_concatenate(self, a, b, p):
        """Theorem 5: independent segment merges concatenate to the merge."""
        part = partition_merge_path(a, b, p)
        pieces = [
            merge_vectorized(
                a[s.a_start : s.a_end], b[s.b_start : s.b_end], check=False
            )
            for s in part.segments
        ]
        out = np.concatenate(pieces) if pieces else np.array([])
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_lemma4_segment_value_ordering(self, a, b, p):
        """Lemma 4: later segments' elements >= earlier segments'."""
        part = partition_merge_path(a, b, p)
        prev_max = None
        for s in part.segments:
            vals = np.concatenate(
                [a[s.a_start : s.a_end], b[s.b_start : s.b_end]]
            )
            if len(vals) == 0:
                continue
            if prev_max is not None:
                assert vals.min() >= prev_max
            prev_max = vals.max()

    @given(a=sorted_ints, b=sorted_ints, d_frac=st.floats(0, 1))
    def test_intersection_consistent_with_prefix(self, a, b, d_frac):
        """The (i, j) split at diagonal d is exactly the d-prefix of the
        merged output (Theorem 9 / Proposition 13)."""
        n = len(a) + len(b)
        d = int(round(d_frac * n))
        pt = diagonal_intersection(a, b, d)
        assert pt.diagonal == d
        prefix = np.sort(np.concatenate([a[: pt.i], b[: pt.j]]))
        np.testing.assert_array_equal(prefix, reference_merge(a, b)[:d])

    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_search_cost_bound(self, a, b, p):
        part = partition_merge_path(a, b, p)
        bound = max_search_steps(len(a), len(b))
        assert sum(part.search_steps) <= (p - 1) * max(bound, 0)


class TestAlgorithmEquivalence:
    @settings(max_examples=50)
    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_parallel_equals_sequential(self, a, b, p):
        np.testing.assert_array_equal(
            parallel_merge(a, b, p, backend="serial"), reference_merge(a, b)
        )

    @settings(max_examples=50)
    @given(
        a=sorted_ints,
        b=sorted_ints,
        p=st.integers(1, 8),
        L=st.integers(1, 64),
    )
    def test_segmented_equals_sequential(self, a, b, p, L):
        np.testing.assert_array_equal(
            segmented_parallel_merge(a, b, p, L=L, backend="serial"),
            reference_merge(a, b),
        )


class TestPRAMConsistency:
    """The closed-form counted mode must equal the lockstep machine on
    arbitrary inputs — the property that licenses using counting at
    paper scale."""

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.lists(st.integers(-20, 20), min_size=0, max_size=40).map(
            lambda xs: np.array(sorted(xs), dtype=np.int64)
        ),
        b=st.lists(st.integers(-20, 20), min_size=0, max_size=40).map(
            lambda xs: np.array(sorted(xs), dtype=np.int64)
        ),
        p=st.integers(1, 6),
    )
    def test_counted_equals_lockstep(self, a, b, p):
        from repro.pram.merge_programs import (
            counted_parallel_merge,
            run_parallel_merge_pram,
        )

        _, metrics = run_parallel_merge_pram(a, b, p)
        counted = counted_parallel_merge(a, b, p)
        assert counted.per_processor == tuple(metrics.steps_per_processor)
        assert counted.time == metrics.cycles
