"""Property-based tests for the SPM-planned parallel external sort.

The serial backend keeps Hypothesis iterations cheap; the
backend-parallel paths get their coverage in
``tests/test_external_parallel.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import kth_of_union_many
from repro.external import external_sort, plan_blocks

from ..conftest import spill_runs

small_ints = st.lists(
    st.integers(min_value=-40, max_value=40), min_size=0, max_size=200
)

dtypes = st.sampled_from([np.int32, np.int64, np.float64])


class TestParallelRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(xs=small_ints, mem=st.integers(4, 64), dtype=dtypes)
    def test_matches_numpy_sort(self, xs, mem, dtype):
        x = np.array(xs, dtype=dtype)
        out = external_sort(x, mem, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x, kind="stable"))
        if len(x):
            assert out.dtype == x.dtype

    @settings(max_examples=25, deadline=None)
    @given(xs=small_ints, mem=st.integers(4, 32))
    def test_presorted_and_reversed_inputs(self, xs, mem):
        x = np.sort(np.array(xs, dtype=np.int64))
        np.testing.assert_array_equal(
            external_sort(x, mem, backend="serial"), x
        )
        np.testing.assert_array_equal(
            external_sort(x[::-1].copy(), mem, backend="serial"), x
        )

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 150), v=st.integers(-5, 5),
           mem=st.integers(4, 32))
    def test_constant_input(self, n, v, mem):
        """All-duplicate input: the hardest case for value-domain block
        cuts — exact-rank tie distribution must still partition it."""
        x = np.full(n, v, dtype=np.int64)
        np.testing.assert_array_equal(
            external_sort(x, mem, backend="serial"), x
        )


class TestPlanProperties:
    @settings(max_examples=30, deadline=None)
    @given(xs=st.lists(st.integers(-20, 20), min_size=1, max_size=200),
           mem=st.integers(4, 32), budget=st.integers(1, 64))
    def test_plan_partitions_total(self, xs, mem, budget, tmp_path_factory):
        x = np.array(xs, dtype=np.int64)
        d = tmp_path_factory.mktemp("plan")
        runs = spill_runs(d, x, mem)
        plan = plan_blocks(runs, budget)
        plan.validate([r.length for r in runs])
        assert plan.total == len(x)
        assert plan.max_block_elements <= max(budget, 1)
        # block boundaries partition [0, total): strictly increasing
        # offsets covering everything exactly once
        assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.total
        assert all(a < b for a, b in zip(plan.offsets, plan.offsets[1:]))
        # and each cut row is itself a valid prefix vector whose parts
        # reproduce the global k smallest (merge-path disjointness)
        readers = [r.open_memmap() for r in runs]
        union = np.sort(x)
        for row, k in zip(plan.cuts, plan.offsets):
            assert sum(row) == k
            if 0 < k < plan.total:
                prefix = np.sort(np.concatenate(
                    [rd[:s] for rd, s in zip(readers, row)]
                ))
                np.testing.assert_array_equal(prefix, union[:k])

    @settings(max_examples=30, deadline=None)
    @given(xs=st.lists(st.integers(-20, 20), min_size=1, max_size=200),
           mem=st.integers(4, 32), k_frac=st.floats(0.0, 1.0))
    def test_kth_matches_sorted_union(self, xs, mem, k_frac, tmp_path_factory):
        x = np.array(xs, dtype=np.int64)
        d = tmp_path_factory.mktemp("kth")
        runs = spill_runs(d, x, mem)
        readers = [r.open_memmap() for r in runs]
        k = max(1, min(len(x), int(round(k_frac * len(x)))))
        value, splits = kth_of_union_many(readers, k)
        union = np.sort(x)
        assert value == union[k - 1]
        assert sum(splits) == k
        assert all(0 <= s <= len(rd) for s, rd in zip(splits, readers))
