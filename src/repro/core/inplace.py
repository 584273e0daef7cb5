"""In-place merge (SymMerge) — completing the merge toolbox.

Everything else in the package merges into fresh output storage, as the
paper does.  Library users also ask for the ``std::inplace_merge``
shape: two adjacent sorted runs inside one buffer, merged without an
N-sized scratch.  We implement **SymMerge** (Kim & Kutzner, 2004):

* find, by binary search, a symmetric decomposition point around the
  run boundary such that swapping the two middle sub-blocks (a
  rotation) leaves two *smaller* adjacent-run problems;
* recurse on both halves.

O((n + m)·log(n+m)) comparisons-and-moves, O(log) stack, O(1) extra
space, **stable** — and, pleasingly, its core search is again a merge
path/diagonal intersection in disguise: it locates where the merge path
of the two middle blocks crosses their anti-diagonal.

``merge_inplace_parallel`` adds the merge-path twist: partition the
*pair of runs* with diagonal searches, rotate the buffer once so each
processor's A- and B-pieces become adjacent, then run independent
SymMerges — in-place parallel merging with ``p`` workers.
"""

from __future__ import annotations

import sys

import numpy as np

from ..backends import Backend, TaskBatch
from ..errors import InputError
from ..execution.context import Execution
from ..validation import as_array, check_positive, check_sorted
from .merge_path import partition_merge_path

__all__ = ["merge_inplace", "merge_inplace_parallel", "rotate"]


def rotate(arr: np.ndarray, lo: int, mid: int, hi: int) -> None:
    """Rotate ``arr[lo:hi]`` so ``arr[mid:hi]`` comes before ``arr[lo:mid]``.

    Triple-reversal rotation: O(hi - lo) moves, O(1) space.
    """
    if not 0 <= lo <= mid <= hi <= len(arr):
        raise InputError(f"invalid rotation bounds ({lo}, {mid}, {hi})")
    arr[lo:mid] = arr[lo:mid][::-1]
    arr[mid:hi] = arr[mid:hi][::-1]
    arr[lo:hi] = arr[lo:hi][::-1]


def _symmerge(arr: np.ndarray, a: int, m: int, b: int) -> None:
    """Recursive SymMerge of runs ``arr[a:m]`` and ``arr[m:b]``.

    A faithful port of Go's ``sort.symMerge`` (itself the Kim–Kutzner
    algorithm): single-element runs are inserted by rotation; otherwise
    the symmetric search pairs index ``c`` with its mirror ``n-1-c``
    around the midpoint and bisects for the swap boundary — which is
    exactly the merge path of the two middle blocks crossing their
    anti-diagonal.
    """
    if m - a == 0 or b - m == 0:
        return
    if m - a == 1:
        # Insert arr[a] into arr[m:b]: before the first element >= it
        # (stability: the left-run element precedes equal right-run ones).
        j = m + int(np.searchsorted(arr[m:b], arr[a], side="left"))
        rotate(arr, a, m, j)
        return
    if b - m == 1:
        # Insert arr[m] into arr[a:m]: before the first element greater
        # (stability: after equal left-run elements).
        j = a + int(np.searchsorted(arr[a:m], arr[m], side="right"))
        rotate(arr, j, m, b)
        return

    mid = (a + b) // 2
    n = mid + m
    if m > mid:
        start, r = n - b, mid
    else:
        start, r = a, m
    p = n - 1
    while start < r:
        c = (start + r) // 2
        # stable variant of Go's !Less(p-c, c): left-run element at c
        # goes first when arr[c] <= arr[p - c]
        if arr[c] <= arr[p - c]:
            start = c + 1
        else:
            r = c
    end = n - start
    if start < m < end:
        rotate(arr, start, m, end)
    if a < start and start < mid:
        _symmerge(arr, a, start, mid)
    if mid < end and end < b:
        _symmerge(arr, mid, end, b)


def merge_inplace(
    arr: np.ndarray,
    mid: int,
    *,
    lo: int = 0,
    hi: int | None = None,
    check: bool = True,
) -> None:
    """Stable in-place merge of adjacent sorted runs ``arr[lo:mid]`` and
    ``arr[mid:hi]`` (the ``std::inplace_merge`` interface).

    O((hi-lo) log (hi-lo)) time, O(log) recursion, O(1) extra space.
    """
    arr = as_array(arr, "arr")
    if hi is None:
        hi = len(arr)
    if not 0 <= lo <= mid <= hi <= len(arr):
        raise InputError(f"invalid run bounds lo={lo}, mid={mid}, hi={hi}")
    if check:
        check_sorted(arr[lo:mid], "arr[lo:mid]")
        check_sorted(arr[mid:hi], "arr[mid:hi]")
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        _symmerge(arr, lo, mid, hi)
    finally:
        sys.setrecursionlimit(old_limit)


def merge_inplace_parallel(
    arr: np.ndarray,
    mid: int,
    p: int,
    *,
    backend: Backend | str = "serial",
    check: bool = True,
) -> None:
    """In-place parallel merge: merge-path partition + one rotation pass +
    independent SymMerges.

    Processor ``k``'s A-piece ``arr[a_k:a_{k+1}]`` and B-piece
    ``arr[mid+b_k : mid+b_{k+1}]`` must end up adjacent at output offset
    ``d_k``.  Performing the rotations serially left-to-right (cheap,
    one O(N) pass total) arranges all pieces; the per-segment SymMerges
    then run independently — they touch disjoint ranges.
    """
    check_positive(p, "p")
    arr = as_array(arr, "arr")
    if not 0 <= mid <= len(arr):
        raise InputError(f"mid={mid} outside array of length {len(arr)}")
    if check:
        check_sorted(arr[:mid], "arr[:mid]")
        check_sorted(arr[mid:], "arr[mid:]")

    def make_task(seg):
        def task() -> None:
            _symmerge(arr, seg.out_start, seg.out_start + seg.a_len, seg.out_end)

        return task

    # Opened before the rotation pass, so a refused backend leaves
    # ``arr`` as it was.
    with Execution(backend, p) as ex:
        part = partition_merge_path(arr[:mid], arr[mid:], p, check=False)
        # Serial rearrangement pass: after processing segment k, the prefix
        # arr[:seg.out_end] holds segment 0..k's pieces in output order
        # (each segment's A-piece then B-piece, both still sorted runs).
        for seg in part.segments:
            # current location of this segment's A piece: it was not moved
            # by earlier rotations beyond out offsets; maintain invariant:
            # remaining unprocessed data is arr[pos:] = A[seg.a_start:] ++ B[seg.b_start:]
            # where pos == seg.out_start.
            pos = seg.out_start
            a_len_rest = mid - seg.a_start
            # bring this segment's B piece right after its A piece:
            # current layout from pos: A_rest (a_len_rest) ++ B_rest
            # want: A_piece (seg.a_len) ++ B_piece (seg.b_len) ++ A_rest' ++ B_rest'
            rotate(
                arr,
                pos + seg.a_len,
                pos + a_len_rest,
                pos + a_len_rest + seg.b_len,
            )
        # Now every segment's pieces are adjacent at [out_start, out_end);
        # merge them independently.
        ex.run(TaskBatch([make_task(s) for s in part.segments if s.length > 0],
                         label="inplace.merge"))
