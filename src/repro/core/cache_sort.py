"""Cache-efficient parallel sort (Section IV.C).

Three stages, exactly as the paper lays them out:

1. Partition the unsorted input into sub-arrays of at most a fraction of
   the cache size ``C``.
2. Sort the sub-arrays one after the other, each with the *parallel*
   sort on all ``p`` processors (the whole working set is in cache, so
   the parallel merge rounds never miss).
3. Merge rounds: repeatedly apply the cache-efficient Segmented Parallel
   Merge (Algorithm 2) to adjacent pairs of sorted runs until a single
   run remains — a binary merge tree of height ``log2(N/C)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import Backend
from ..execution.context import Execution
from ..types import MergeStats
from ..validation import as_array, check_positive
from .merge_sort import parallel_merge_sort
from .segmented_merge import block_length, segmented_parallel_merge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = ["cache_efficient_sort"]


def cache_efficient_sort(
    x: Sequence | np.ndarray,
    p: int,
    cache_elements: int,
    *,
    backend: Backend | str = "threads",
    block_fraction: int = 3,
    stats: MergeStats | None = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Sort ``x`` with ``p`` processors and a ``C``-element cache budget.

    Parameters
    ----------
    x:
        Input array, any order.
    p:
        Processor count.
    cache_elements:
        Cache capacity ``C`` in *elements*; stage 1 blocks are ``C/3``
        elements so input + output of a block-local sort co-reside.
    backend:
        As in :func:`repro.core.parallel_merge.parallel_merge`.
    block_fraction:
        The ``C/3`` divisor, exposed for the sizing ablation.
    stats:
        Optional operation counter covering the merge work — the same
        ``MergeStats``-shaped sink every other entry point takes (pass
        ``MetricsRegistry.merge_stats()`` to count straight into the
        unified registry).
    trace, metrics:
        Optional :class:`~repro.obs.Tracer` /
        :class:`~repro.obs.MetricsRegistry`, forwarded to the
        stage 2 parallel sorts and stage 3 segmented merges.

    Returns
    -------
    numpy.ndarray
        Sorted copy of ``x``.
    """
    check_positive(p, "p")
    check_positive(cache_elements, "cache_elements")
    arr = as_array(x, "x")
    n = len(arr)
    if n <= 1:
        return arr.copy()

    L = block_length(cache_elements, block_fraction)
    with Execution(backend, p, trace=trace, metrics=metrics,
                   stats=stats) as ex:
        # Stage 1+2: cache-sized blocks, each sorted by all p processors.
        runs = [
            parallel_merge_sort(arr[lo:lo + L], p, backend=ex.backend,
                                stats=ex.stats, trace=trace, metrics=metrics)
            for lo in range(0, n, L)
        ]

        # Stage 3: binary tree of segmented (cache-efficient) merges.
        while len(runs) > 1:
            next_runs = [
                segmented_parallel_merge(
                    runs[i], runs[i + 1], p, L=L, backend=ex.backend,
                    check=False, stats=ex.stats, trace=trace, metrics=metrics,
                )
                for i in range(0, len(runs) - 1, 2)
            ]
            if len(runs) % 2:
                next_runs.append(runs[-1])
            runs = next_runs
    return runs[0]
