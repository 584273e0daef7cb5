"""T14 bench — partition cost vs the Theorem 14 bound, plus the scalar
vs vectorized diagonal-search ablation."""

import pytest

from repro.core.merge_path import (
    diagonal_intersections_vectorized,
    partition_merge_path,
)
from repro.experiments.partition_cost import run as run_t14
from repro.workloads.generators import sorted_uniform_ints

from .conftest import FULL, emit

N = 1 << 20 if FULL else 1 << 16


@pytest.fixture(scope="module")
def pair():
    return sorted_uniform_ints(N, 300), sorted_uniform_ints(N, 301)


def test_t14_table_regeneration(benchmark):
    sizes = (1 << 10, 1 << 14, 1 << 18) if FULL else (1 << 10, 1 << 13)
    result = benchmark.pedantic(
        run_t14, kwargs=dict(sizes=sizes), rounds=1, iterations=1
    )
    emit(result)
    assert all(result.column("within_bound"))
    assert max(result.column("imbalance")) <= 1


@pytest.mark.parametrize("p", [8, 64])
def test_bench_partition_scalar(benchmark, pair, p):
    """Scalar per-diagonal binary search (ablation arm 1 — production)."""
    a, b = pair
    benchmark(partition_merge_path, a, b, p, check=False)


@pytest.mark.parametrize("p", [8, 64])
def test_bench_partition_vectorized(benchmark, pair, p):
    """Lockstep multi-diagonal search (ablation arm 2) on the same
    diagonals."""
    a, b = pair
    n = len(a) + len(b)
    cuts = [(k * n) // p for k in range(1, p)]
    benchmark(diagonal_intersections_vectorized, a, b, cuts)
