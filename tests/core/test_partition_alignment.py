"""Partition/program alignment: segment k == processor k's work.

The counted mode, the PRAM programs and the partitioner must all agree
on which processor owns which output range — including the degenerate
``p > N`` cases where interior segments are empty.  These tests pin the
alignment contract the PRAM consistency property relies on.
"""

import numpy as np
import pytest

from repro.core.merge_path import (
    diagonal_intersections_vectorized,
    partition_merge_path,
)
from repro.workloads.adversarial import ADVERSARIAL_PAIRS


class TestBoundaryFormula:
    @pytest.mark.parametrize("n_a,n_b,p", [
        (0, 1, 2), (1, 0, 5), (1, 1, 3), (2, 3, 7), (3, 3, 8),
        (10, 0, 4), (0, 10, 16), (5, 7, 24),
    ])
    def test_segment_k_spans_algorithm1_diagonals(self, n_a, n_b, p):
        """Segment k's output range must be [k·N/p, (k+1)·N/p) — the
        DiagonalNum formula of Algorithm 1's step 1 — even when that
        makes some segments empty."""
        a = np.arange(n_a)
        b = np.arange(n_b)
        part = partition_merge_path(a, b, p)
        n = n_a + n_b
        assert part.p == p
        for k, seg in enumerate(part.segments):
            assert seg.out_start == (k * n) // p
            assert seg.out_end == ((k + 1) * n) // p

    def test_empty_interior_segments_allowed(self):
        part = partition_merge_path(np.array([5]), np.array([3]), 4)
        lengths = part.segment_lengths
        assert sum(lengths) == 2
        assert len(lengths) == 4
        # the two elements land where the boundary formula puts them
        assert lengths == (0, 1, 0, 1)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_alignment_on_adversarial(self, name):
        a, b = ADVERSARIAL_PAIRS[name](16)
        n = len(a) + len(b)
        for p in (3, 7, 40):
            part = partition_merge_path(a, b, p)
            part.validate()
            for k, seg in enumerate(part.segments):
                assert seg.out_start == (k * n) // p

    def test_vectorized_and_scalar_agree_p_gt_n(self):
        a = np.array([1, 3])
        b = np.array([2])
        part = partition_merge_path(a, b, 9)
        cuts = [s.out_start for s in part.segments[1:]]
        ivals = diagonal_intersections_vectorized(a, b, cuts)
        assert [s.a_start for s in part.segments[1:]] == ivals.tolist()


class TestProgramAgreement:
    @pytest.mark.parametrize("n_a,n_b,p", [
        (1, 0, 3), (0, 3, 5), (2, 2, 6), (4, 5, 12),
    ])
    def test_counted_matches_lockstep_degenerate(self, n_a, n_b, p):
        from repro.pram.merge_programs import (
            counted_parallel_merge,
            run_parallel_merge_pram,
        )

        g = np.random.default_rng(n_a * 10 + n_b + p)
        a = np.sort(g.integers(0, 9, n_a))
        b = np.sort(g.integers(0, 9, n_b))
        _, metrics = run_parallel_merge_pram(a, b, p)
        counted = counted_parallel_merge(a, b, p)
        assert counted.per_processor == tuple(metrics.steps_per_processor)
