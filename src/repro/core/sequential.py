"""Sequential (in-segment) merge kernels.

Algorithm 1 parallelizes *partitioning*; within each segment an ordinary
sequential merge runs.  Three interchangeable kernels are provided, all
implementing the identical stable semantics (``A`` before equal ``B``,
matching the merge-path tie-break):

``merge_two_pointer``
    The textbook element-at-a-time merge.  This is the exact loop the
    paper's step counts refer to — one comparison + one move per output
    element — and is what the PRAM programs model.  Pure Python; used
    for step accounting.
``merge_galloping``
    Exponential (galloping) search when one run repeatedly wins, as in
    TimSort.  Wins asymptotically on clustered data (e.g. the LB
    experiment's disjoint-range adversarial inputs); same worst case.
``merge_vectorized``
    Copy ``A`` then ``B`` into the output and run numpy's stable sort
    over it.  On numeric dtypes wider than 16 bits that sort is
    timsort: it finds the two sorted runs and merges them with
    galloping in linear time, with the GIL released and a scratch
    buffer no larger than the smaller run (narrower types get NumPy's
    radix sort, also linear).  Stability keeps ``A`` before equal
    ``B``.  This is the production kernel, the ``seq_merge`` leaf under
    the merge-path split, and plays the role numba-jitted loops play in
    CPU merge-path libraries.

Only the vectorized kernel runs in production: :func:`merge_into` writes
it into a caller-provided output slice, which is how parallel workers
write their disjoint output ranges without any synchronization.  The two
Python kernels are step-counting tools and references (``KERNELS``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import InputError
from ..types import MergeStats
from ..validation import as_array, check_mergeable

__all__ = [
    "merge_two_pointer",
    "merge_galloping",
    "merge_vectorized",
    "merge_into",
    "merge_runs_into",
    "KERNELS",
    "result_dtype",
]


def result_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """Dtype of the merged output: numpy promotion of the input dtypes."""
    return np.promote_types(a.dtype, b.dtype)


def _prepare(
    a: Sequence | np.ndarray, b: Sequence | np.ndarray, check: bool
) -> tuple[np.ndarray, np.ndarray]:
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)
    return a, b


def merge_two_pointer(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    check: bool = True,
    stats: MergeStats | None = None,
) -> np.ndarray:
    """Textbook sequential merge; one comparison and one move per element.

    Stable: on ties the ``A`` element is emitted first.  When ``stats``
    is supplied, ``comparisons`` counts element comparisons actually
    performed (the tail copy after one input is exhausted costs moves
    but no comparisons) and ``moves`` counts output writes.
    """
    a, b = _prepare(a, b, check)
    m, n = len(a), len(b)
    out = np.empty(m + n, dtype=result_dtype(a, b))
    i = j = k = 0
    comparisons = 0
    while i < m and j < n:
        comparisons += 1
        if a[i] <= b[j]:
            out[k] = a[i]
            i += 1
        else:
            out[k] = b[j]
            j += 1
        k += 1
    if i < m:
        out[k:] = a[i:]
    if j < n:
        out[k:] = b[j:]
    if stats is not None:
        stats.comparisons += comparisons
        stats.moves += m + n
    return out


def _gallop_right(arr: np.ndarray, key, start: int, stats: MergeStats | None) -> int:
    """First index ``> start`` in ``arr[start:]`` whose element is > ``key``.

    Exponential probe doubling followed by binary search within the
    bracketed range — the classic galloping-mode primitive.
    """
    n = len(arr)
    step = 1
    lo = start
    hi = start
    while hi < n and arr[hi] <= key:
        if stats is not None:
            stats.comparisons += 1
        lo = hi + 1
        hi = start + step
        step *= 2
    hi = min(hi, n)
    # binary search in (lo-1, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if stats is not None:
            stats.comparisons += 1
        if arr[mid] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_galloping(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    check: bool = True,
    min_gallop: int = 4,
    stats: MergeStats | None = None,
) -> np.ndarray:
    """Merge with galloping runs, TimSort-style.

    Runs the two-pointer loop, but after ``min_gallop`` consecutive wins
    from the same array switches to exponential search to find the end
    of the winning run and block-copies it.  Identical stable output to
    :func:`merge_two_pointer`.
    """
    if min_gallop < 1:
        raise InputError(f"min_gallop must be >= 1, got {min_gallop}")
    a, b = _prepare(a, b, check)
    m, n = len(a), len(b)
    out = np.empty(m + n, dtype=result_dtype(a, b))
    i = j = k = 0
    a_wins = b_wins = 0
    while i < m and j < n:
        if stats is not None:
            stats.comparisons += 1
        if a[i] <= b[j]:
            out[k] = a[i]
            i += 1
            k += 1
            a_wins += 1
            b_wins = 0
            if a_wins >= min_gallop:
                # Copy the whole run of A elements <= b[j] in one block.
                end = _gallop_right(a, b[j], i, stats)
                if end > i:
                    out[k : k + (end - i)] = a[i:end]
                    k += end - i
                    i = end
                a_wins = 0
        else:
            out[k] = b[j]
            j += 1
            k += 1
            b_wins += 1
            a_wins = 0
            if b_wins >= min_gallop:
                # Copy the run of B elements strictly < a[i] (ties go to A).
                end = _gallop_strict(b, a[i], j, stats)
                if end > j:
                    out[k : k + (end - j)] = b[j:end]
                    k += end - j
                    j = end
                b_wins = 0
    if i < m:
        out[k:] = a[i:]
    if j < n:
        out[k:] = b[j:]
    if stats is not None:
        stats.moves += m + n
    return out


def _gallop_strict(arr: np.ndarray, key, start: int, stats: MergeStats | None) -> int:
    """First index in ``arr[start:]`` whose element is >= ``key``."""
    n = len(arr)
    step = 1
    lo = start
    hi = start
    while hi < n and arr[hi] < key:
        if stats is not None:
            stats.comparisons += 1
        lo = hi + 1
        hi = start + step
        step *= 2
    hi = min(hi, n)
    while lo < hi:
        mid = (lo + hi) // 2
        if stats is not None:
            stats.comparisons += 1
        if arr[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_vectorized(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    check: bool = True,
    stats: MergeStats | None = None,
) -> np.ndarray:
    """Linear-time stable merge into a new array (production kernel).

    Allocates the output and runs :func:`merge_into` on it: ``A`` and
    ``B`` are copied in, in that order, and a stable sort merges the two
    runs.  Ties keep ``A`` before equal ``B`` because the sort is stable
    and ``A`` comes first.  ``stats`` counts as :func:`merge_into` does.
    """
    a, b = _prepare(a, b, check)
    out = np.empty(len(a) + len(b), dtype=result_dtype(a, b))
    merge_into(out, a, b, stats=stats)
    return out


#: Registry of kernels by name, used by benchmarks, the ablation study
#: and the conformance registry.  Production paths call :func:`merge_into`.
KERNELS: dict[str, Callable[..., np.ndarray]] = {
    "two_pointer": merge_two_pointer,
    "galloping": merge_galloping,
    "vectorized": merge_vectorized,
}


def _in_place(out: np.ndarray, arr: np.ndarray, offset: int, side: str) -> bool:
    """Whether ``arr`` already is the view ``out[offset:offset + len(arr)]``.

    Raises :class:`~repro.errors.InputError` when ``arr`` overlaps
    ``out`` in any other way.
    """
    if not len(arr) or not np.may_share_memory(out, arr):
        return False
    start = out.__array_interface__["data"][0] + offset * out.strides[0]
    if (
        arr.dtype == out.dtype
        and (len(arr) == 1 or arr.strides == out.strides)
        and arr.__array_interface__["data"][0] == start
    ):
        return True
    raise InputError(
        f"output slice overlaps input {side}; only the exact [A | B] "
        "in-place layout may alias"
    )


def merge_into(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    stats: MergeStats | None = None,
) -> None:
    """Linear-time stable merge of ``a`` and ``b`` written into ``out``.

    This is the worker primitive of Algorithm 1: each processor calls it
    on its disjoint output slice, so no locking is ever needed.
    ``out`` must have length ``len(a) + len(b)``.

    Copies ``a`` into ``out[:len(a)]`` and ``b`` after it, then sorts
    ``out`` in place with ``kind="stable"``.  For two sorted runs the
    stable sort is a single galloping timsort merge: O(|A|+|B|) work,
    the GIL released on numeric dtypes, and a scratch buffer of at most
    ``min(|A|, |B|)`` elements.  (NumPy sorts types of 16 bits or less
    by radix sort instead, also linear, with an ``|A|+|B|`` buffer; a
    non-contiguous ``out`` is sorted through a contiguous copy.)  The
    result equals ``np.sort(np.concatenate([a, b]), kind="stable")``
    bit for bit, for every dtype and value (NaN, signed zeros,
    infinities).

    ``out`` may be exactly the ``[a | b]`` layout (``a`` already at
    ``out[:len(a)]`` and ``b`` right after it), in which case that side
    is not copied.  Any other overlap of ``out`` with ``a`` or ``b``
    raises :class:`~repro.errors.InputError`: copying the first side
    would overwrite the second before it was read.

    ``stats.comparisons`` counts ``|A| + |B| - 1`` when both sides are
    non-empty — the worst case of a linear merge, an upper bound on what
    galloping performs — and ``stats.moves`` counts output writes.
    """
    la, lb = len(a), len(b)
    if len(out) != la + lb:
        raise InputError(
            f"output slice length {len(out)} != |A|+|B| = {la + lb}"
        )
    if not _in_place(out, a, 0, "A"):
        out[:la] = a
    if not _in_place(out, b, la, "B"):
        out[la:] = b
    if la and lb:
        out.sort(kind="stable")
    if stats is not None:
        if la and lb:
            stats.comparisons += la + lb - 1
        stats.moves += la + lb


def merge_runs_into(out: np.ndarray, runs: Sequence[np.ndarray]) -> None:
    """Stable merge of ``T`` sorted ``runs`` written into ``out``.

    The k-way form of :func:`merge_into`: copies the runs
    back to back into ``out`` and stable-sorts it in place.  Timsort
    finds the ``T`` runs and merges them in ``O(n log T)``, and
    stability emits equal keys in run order (run 0 first), so the
    result equals ``np.sort(np.concatenate(runs), kind="stable")`` bit
    for bit.
    """
    pos = 0
    for run in runs:
        out[pos:pos + len(run)] = run
        pos += len(run)
    if pos != len(out):
        raise InputError(f"output length {len(out)} != total run length {pos}")
    out.sort(kind="stable")
