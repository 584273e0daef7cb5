"""Natural (adaptive) merge sort — TimSort's key idea over merge path.

Real-world data often arrives *almost* sorted.  A natural merge sort
detects the existing ascending runs (descending runs are reversed in
place, TimSort-style) and only merges what needs merging: already
sorted input costs one O(N) detection scan and zero merges; k natural
runs cost ``O(N log k)`` instead of ``O(N log N)``.

The merges themselves are the package's parallel merge-path merges, so
this composes adaptivity (from run detection) with parallelism (from
partitioning) — a combination none of the paper's baselines has.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import Backend
from ..execution.context import Execution
from ..execution.engine import run_merge_round
from ..types import MergeStats
from ..validation import as_array, check_positive

__all__ = ["find_natural_runs", "natural_merge_sort"]


def find_natural_runs(x: np.ndarray, *, reverse_descending: bool = True) -> list[int]:
    """Boundaries of maximal ascending runs in ``x``.

    Returns run boundaries ``[0, b1, ..., len(x)]``.  With
    ``reverse_descending`` (default), maximal strictly-descending runs
    are reversed **in place** first, so they count as single runs —
    reversing a strictly descending run is stable because no two of its
    elements are equal.

    Vectorized: boundaries come from one comparison pass.
    """
    n = len(x)
    if n <= 1:
        return [0, n] if n else [0, 0]
    if not reverse_descending:
        breaks = np.nonzero(x[:-1] > x[1:])[0] + 1
        return [0, *breaks.tolist(), n]

    # TimSort-style left-to-right scan: at each run start, the first
    # adjacency decides the direction; the run extends while the
    # direction holds; descending runs are reversed in place.  The scan
    # jumps run to run with binary searches over the precomputed
    # descending-adjacency index list, so the cost is
    # O(n + runs·log n), not O(n·runs).
    desc_idx = np.nonzero(x[:-1] > x[1:])[0]  # t where x[t] > x[t+1]
    asc_idx = np.nonzero(x[:-1] <= x[1:])[0]  # t where x[t] <= x[t+1]
    bounds = [0]
    i = 0
    while i < n - 1:
        if x[i] <= x[i + 1]:
            # ascending run: ends before the next descending adjacency
            k = np.searchsorted(desc_idx, i)
            end = int(desc_idx[k]) + 1 if k < len(desc_idx) else n
        else:
            # strictly descending run: ends before the next
            # non-descending adjacency; reverse it (stable: all strict)
            k = np.searchsorted(asc_idx, i)
            end = int(asc_idx[k]) + 1 if k < len(asc_idx) else n
            x[i:end] = x[i:end][::-1]
        bounds.append(end)
        i = end
    if bounds[-1] != n:
        bounds.append(n)
    return bounds


def natural_merge_sort(
    x: Sequence | np.ndarray,
    p: int = 1,
    *,
    backend: Backend | str = "serial",
    stats: MergeStats | None = None,
) -> np.ndarray:
    """Adaptive sort: detect natural runs, then parallel-merge them up.

    Cost adapts to the input's existing order: ``O(N)`` when already
    sorted (or reverse-sorted), ``O(N log k)`` for ``k`` natural runs.

    Returns a sorted copy; the input is never mutated.
    """
    check_positive(p, "p")
    arr = as_array(x, "x").copy()
    n = len(arr)
    if n <= 1:
        return arr

    bounds = find_natural_runs(arr)
    runs: list[np.ndarray] = [
        arr[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    if len(runs) == 1:
        return arr

    with Execution(backend, p) as ex:
        round_index = 1
        while len(runs) > 1:  # one batched dispatch per round
            runs = run_merge_round(
                runs, max(1, p // (len(runs) // 2)), backend=ex.backend,
                stats=stats, round_index=round_index,
            )
            round_index += 1
    return runs[0]
