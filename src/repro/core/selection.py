"""Selection on unions of sorted arrays.

:func:`kth_of_union` finds the k-th smallest element of ``A ∪ B`` in
``O(log min(|A|, |B|))`` — the primitive behind the Akl–Santoro [5] and
Deo–Sarkar [2] baselines, and mathematically *the same search* as the
merge-path diagonal intersection (the paper's Section V observation that
"their way of finding the median is similar to the process that we
use"). The correspondence: the k-th smallest is the element consumed by
the merge path's k-th step, and the split ``(i, j)`` returned here is
exactly the path's intersection with grid diagonal ``k``.

:func:`kth_of_union_many` generalizes to unions of many sorted arrays by
binary-searching the *value* domain with per-array rank queries — the
one co-ranking step behind :func:`repro.core.kway.kway_partition`, the
k-way merge and the external sort's block planner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InputError
from ..types import MergeStats, PathPoint
from ..validation import as_array, check_sorted
from .merge_path import diagonal_intersection

__all__ = ["kth_of_union", "kth_of_union_many", "union_rank", "topk_of_union"]


def kth_of_union(
    a: np.ndarray,
    b: np.ndarray,
    k: int,
    *,
    stats: MergeStats | None = None,
) -> tuple[object, PathPoint]:
    """k-th smallest (1-based) of the union of two sorted arrays.

    Returns ``(value, split)`` where ``split = (i, j)`` says the ``k``
    smallest elements are exactly ``A[:i]`` and ``B[:j]`` under the
    stable A-first tie-break.

    Raises :class:`~repro.errors.InputError` unless
    ``1 <= k <= |A| + |B|``.
    """
    a = as_array(a, "A")
    b = as_array(b, "B")
    if not 1 <= k <= len(a) + len(b):
        raise InputError(f"k must be in [1, {len(a) + len(b)}], got {k}")
    point = diagonal_intersection(a, b, k, stats=stats)
    # The k-th smallest is the element consumed by the path's k-th step:
    # the larger of the two "last consumed" candidates.
    i, j = point.i, point.j
    if i == 0:
        value = b[j - 1]
    elif j == 0:
        value = a[i - 1]
    else:
        value = max(a[i - 1], b[j - 1])
    return value, point


def union_rank(arrays: Sequence[np.ndarray], value: object, side: str = "left") -> int:
    """Total rank of ``value`` across sorted arrays.

    ``side='left'``: number of elements strictly less than ``value``;
    ``side='right'``: number of elements ``<= value``.
    """
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    return int(sum(np.searchsorted(arr, value, side=side) for arr in arrays))


def kth_of_union_many(
    arrays: Sequence[np.ndarray],
    k: int,
    *,
    check: bool = True,
) -> tuple[object, list[int]]:
    """k-th smallest (1-based) of the union of many sorted arrays.

    Binary search over the *value* domain with pivots probed from the
    arrays themselves: each round takes the middle element of the
    largest remaining candidate window and ranks it in every array with
    ``searchsorted``, so a round costs ``O(Σ log |arrays_t|)`` and the
    window shrinks by half — ``O(T log N)`` rounds.  Only per-array
    ``searchsorted`` touches the inputs, so memory maps work and are
    never loaded whole (the external planner relies on this).

    Returns ``(value, splits)`` where ``splits[t]`` elements of
    ``arrays[t]`` fall among the ``k`` smallest.  Ties are broken by
    array order (earlier arrays first), extending the A-before-B rule.
    """
    arrays = [as_array(arr, f"arrays[{t}]") for t, arr in enumerate(arrays)]
    if check:
        for t, arr in enumerate(arrays):
            check_sorted(arr, f"arrays[{t}]")
    total = sum(len(arr) for arr in arrays)
    if not 1 <= k <= total:
        raise InputError(f"k must be in [1, {total}], got {k}")

    los = [0] * len(arrays)
    his = [len(arr) for arr in arrays]
    # Each round halves the largest window, so this many rounds (or an
    # empty window without a hit) is unreachable for sorted inputs.
    budget = 4 * sum(max(1, h).bit_length() for h in his) + 8
    for _ in range(budget):
        t = max(range(len(arrays)), key=lambda i: his[i] - los[i])
        if his[t] <= los[t]:
            break
        value = arrays[t][(los[t] + his[t]) // 2]
        lefts = [int(np.searchsorted(a, value, side="left")) for a in arrays]
        rights = [int(np.searchsorted(a, value, side="right")) for a in arrays]
        if sum(lefts) >= k:  # the k-th value is strictly below the pivot
            his = [min(h, le) for h, le in zip(his, lefts)]
        elif sum(rights) < k:  # the k-th value is strictly above it
            los = [max(lo, ri) for lo, ri in zip(los, rights)]
        else:
            # Everything strictly below `value` is in; ties are admitted
            # array-by-array until k elements are reached.
            remaining = k - sum(lefts)
            for i in range(len(arrays)):
                take = min(rights[i] - lefts[i], remaining)
                lefts[i] += take
                remaining -= take
            return value, lefts
    raise AssertionError("k-th selection failed to converge (unsorted input?)")


def topk_of_union(
    a: np.ndarray,
    b: np.ndarray,
    k: int,
    *,
    stats: MergeStats | None = None,
) -> np.ndarray:
    """The ``k`` smallest elements of ``A ∪ B``, merged, in order.

    One diagonal search locates the k-prefix split (Theorem 9: output
    rank == grid diagonal), then only those prefixes are merged —
    ``O(log min(|A|,|B|) + k)`` total, independent of ``|A| + |B|``.
    The top-k idiom (leaderboards, limit queries over two sorted
    sources) for free from the paper's machinery.
    """
    from .sequential import merge_vectorized

    a = as_array(a, "A")
    b = as_array(b, "B")
    if k == 0:
        return np.empty(0, dtype=np.promote_types(a.dtype, b.dtype))
    if not 0 <= k <= len(a) + len(b):
        raise InputError(f"k must be in [0, {len(a) + len(b)}], got {k}")
    point = diagonal_intersection(a, b, k, stats=stats)
    return merge_vectorized(a[: point.i], b[: point.j], check=False)
