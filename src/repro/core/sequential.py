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
    over it, one cache-sized sub-block of the output at a time
    (:func:`merge_into`).  On numeric dtypes wider than 16 bits that
    sort is timsort: it finds the two sorted runs and merges them with
    galloping in linear time, with the GIL released (narrower types get
    NumPy's radix sort, also linear).  Stability keeps ``A`` before
    equal ``B``.  This is the production kernel, the ``seq_merge`` leaf
    under the merge-path split, and plays the role numba-jitted loops
    play in CPU merge-path libraries.

Only the vectorized kernel runs in production: :func:`merge_into` writes
it into a caller-provided output slice, which is how parallel workers
write their disjoint output ranges without any synchronization.  The two
Python kernels are step-counting tools and references (``KERNELS``).

:func:`sort_chunk` is the matching leaf of the sorts: every run the
package forms (round 0 of the parallel sort, external run formation,
the server's small sorts) is one call of it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import InputError
from ..types import MergeStats
from ..validation import as_array, check_mergeable, first_disorder
from .merge_path import diagonal_intersections_vectorized

__all__ = [
    "merge_two_pointer",
    "merge_galloping",
    "merge_vectorized",
    "merge_into",
    "merge_runs_into",
    "sort_chunk",
    "sort_keys",
    "merge_keys",
    "sorted_as",
    "KERNELS",
    "SUB_BLOCK_BYTES",
    "WHOLE_SORT_SUB_BLOCKS",
    "result_dtype",
]

#: Output bytes per sub-block of :func:`merge_into`: small enough that a
#: sub-block's two input slices, its output and the stable sort's
#: scratch stay in a core's L2 cache, large enough that the per-block
#: Python work is noise next to the sort.
SUB_BLOCK_BYTES = 256 * 1024

#: A call of at most this many sub-blocks (2 MiB of output at the
#: default size) is one copy and one sort.  Its inputs and output fit
#: an L2 cache whole, so the walk's per-block work (the lockstep cuts,
#: a scan per side, a sort call) is pure cost: measured against one
#: checked sort on a 2-vCPU x86 VM with a 2 MiB L2 (int32, int64,
#: float64), the checked walk was 4-10% slower at 4 and 8 sub-blocks,
#: 0-4% slower at 16, 6-8% faster at 32 and 9-14% faster at 64.
WHOLE_SORT_SUB_BLOCKS = 8


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
) -> np.ndarray:
    """Linear-time stable merge into a new array (production kernel).

    Allocates the output and runs :func:`merge_into` on it: ``A`` and
    ``B`` are copied in, in that order, and a stable sort merges the two
    runs.  Ties keep ``A`` before equal ``B`` because the sort is stable
    and ``A`` comes first.  Order is checked on the
    :func:`merge_keys` (two bool arrays as their bytes), the order the
    sort gives them.
    """
    a, b = _prepare(a, b, False)
    ka, kb = merge_keys(a, b)
    if check:
        check_mergeable(ka, kb)
    out = np.empty(len(a) + len(b), dtype=result_dtype(ka, kb))
    merge_into(out, ka, kb)
    return out if ka is a else sorted_as(out, a)


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
    check: bool = False,
) -> tuple[int | None, int | None]:
    """Linear-time stable merge of ``a`` and ``b`` written into ``out``.

    This is the worker primitive of Algorithm 1: each processor calls it
    on its disjoint output slice, so no locking is ever needed.
    ``out`` must have length ``len(a) + len(b)``.

    The kernel copies ``a`` and then ``b`` into ``out`` and sorts it
    with ``kind="stable"``.  For two sorted runs the stable sort is a
    single galloping timsort merge: O(|A|+|B|) work, the GIL released
    on numeric dtypes, and a scratch buffer no larger than the smaller
    run.  (NumPy sorts types of 16 bits or less by radix sort instead,
    also linear; a non-contiguous ``out`` is sorted through a
    contiguous copy.)  A call of more than :data:`WHOLE_SORT_SUB_BLOCKS`
    sub-blocks does this one cache-sized sub-block of
    :data:`SUB_BLOCK_BYTES` at a time, the path blocks of the paper's
    Section IV.B: the sub-block ends are output ranks, cut on the merge
    path by one diagonal search
    (:func:`~repro.core.merge_path.diagonal_intersections_vectorized`),
    and each sub-block's ``a`` and ``b`` slices are copied into place
    and sorted while they sit in cache.  Either way the result equals
    ``np.sort(np.concatenate([a, b]), kind="stable")`` bit for bit, for
    every dtype and value (NaN, signed zeros, infinities): the cuts use
    the same A-before-equal-B, NaN-last order as the sort.  Bools are
    the exception: the sort orders their bytes and the cuts their truth
    values, so bool arrays holding bytes other than 0 and 1 must come
    as their keys (:func:`merge_keys`), as ``parallel_merge``,
    ``merge`` and :func:`merge_vectorized` pass them.  The cuts are
    kernel work, like timsort's galloping, not partition probes.

    With ``check`` the kernel also validates its input, while each
    sub-block's slices are cache-hot: it returns ``(i, j)``, the first
    descent of ``a`` and of ``b`` in NumPy's order
    (:func:`~repro.validation.first_disorder`; ``None`` where there is
    none).  After a descent it sorts nothing more, so an unsorted input
    still costs O(N).  It stops at the first descent of ``a``, whose
    error wins, and then ``j`` may be ``None`` although ``b`` has one;
    after a descent of ``b`` alone it keeps scanning ``a``.  On a
    reported descent ``out`` holds no meaningful result.  Without
    ``check`` it returns ``(None, None)``.

    ``out`` may be exactly the ``[a | b]`` layout (``a`` already at
    ``out[:len(a)]`` and ``b`` right after it), in which case that side
    is not copied and the call is one sort at any size.  Any other
    overlap of ``out`` with ``a`` or ``b`` raises
    :class:`~repro.errors.InputError`: copying the first side would
    overwrite the second before it was read.

    The kernel counts nothing: a segment's work is fixed by its lengths,
    so :func:`repro.execution.engine.run_segments` publishes it from the
    plan (``|A| + |B|`` moves and, with both sides non-empty,
    ``|A| + |B| - 1`` comparisons, the worst case of a linear merge).
    """
    la, lb = len(a), len(b)
    n = la + lb
    if len(out) != n:
        raise InputError(
            f"output slice length {len(out)} != |A|+|B| = {n}"
        )
    a_placed = _in_place(out, a, 0, "A")
    b_placed = _in_place(out, b, la, "B")
    if (n * out.itemsize <= WHOLE_SORT_SUB_BLOCKS * SUB_BLOCK_BYTES
            or a_placed or b_placed):
        if check:
            i = first_disorder(a)
            if i is not None:
                return i, None
            j = first_disorder(b)
            if j is not None:
                return None, j
        if not a_placed:
            out[:la] = a
        if not b_placed:
            out[la:] = b
        if la and lb:
            out.sort(kind="stable")
        return None, None

    step = max(1, SUB_BLOCK_BYTES // out.itemsize)
    ends = np.arange(step, n, step)
    cuts = diagonal_intersections_vectorized(a, b, ends).tolist()
    j = None
    i0 = d0 = 0
    for d1, i1 in zip([*ends.tolist(), n], [*cuts, la]):
        # On unsorted input the cuts need not be monotone: clamp each
        # so the sub-blocks still tile both inputs.
        i1 = min(max(i1, i0), i0 + d1 - d0)
        j0, j1 = d0 - i0, d1 - i1
        block = out[d0:d1]
        if j is None:
            block[:i1 - i0] = a[i0:i1]
            block[i1 - i0:] = b[j0:j1]
        if check:
            # The copy just read both slices: scan them while cache-hot,
            # each one element past its end (the pair across the cut).
            k = first_disorder(a[i0:i1 + 1])
            if k is not None:
                return i0 + k, j
            if j is None:
                k = first_disorder(b[j0:j1 + 1])
                if k is not None:
                    j = j0 + k
        if j is None and i1 > i0 and j1 > j0:
            block.sort(kind="stable")
        i0, d0 = i1, d1
    return None, j


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


def sort_chunk(x: np.ndarray) -> np.ndarray:
    """Sorted copy of ``x``: the run-forming leaf of every sort.

    Integer dtypes (kinds ``'i'`` and ``'u'``) use NumPy's unstable
    ``"quicksort"``, which NumPy hands to a SIMD sort where the CPU has
    one (2^22 int32 on an AVX-512 VM: about 35 ms against about 610 ms
    for the stable sort, which is timsort there).  Integers that
    compare equal have identical bits, so the result has exactly the
    bytes of ``np.sort(x, kind="stable")``.  Every other dtype keeps
    ``"stable"``: equal floats can differ in bits (``-0.0``/``0.0``, NaN
    payloads), and so can equal bools (a bool byte other than 0 or 1 is
    true).

    ``x`` is never written, and the result is always a fresh array, so
    a speculative duplicate of a sort task never races on shared memory.
    """
    kind = "quicksort" if x.dtype.kind in "iu" else "stable"
    return np.sort(x, kind=kind)


def sort_keys(x: np.ndarray) -> np.ndarray:
    """``x`` as the sorts compare it, without a copy.

    NumPy sorts a bool array by its bytes (a true ``2`` after a true
    ``1``), while ``<=`` compares truth values, so a bool array is
    viewed as ``uint8``.  Every other array is returned as it is.
    """
    return x.view(np.uint8) if x.dtype == np.bool_ else x


def merge_keys(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as the merges cut, check and sort them.

    Two bool arrays are merged as their bytes (:func:`sort_keys`), the
    order ``np.sort`` gives them, so a true byte other than 1 lands
    where ``np.sort`` puts it; the merge of the keys is viewed back with
    :func:`sorted_as` (it ran on keys when ``merge_keys(a, b)[0] is not
    a``).  A bool merged with another dtype is promoted by value, and
    every other pair is returned as it is.
    """
    if a.dtype.kind == "b" and b.dtype.kind == "b":
        return sort_keys(a), sort_keys(b)
    return a, b


def sorted_as(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sorted keys ``out`` of ``x`` in ``x``'s dtype, as ``np.sort``
    returns it: bools are viewed back, and a byte order the merges
    normalised to native is restored."""
    if out.dtype == x.dtype:
        return out
    if x.dtype == np.bool_:
        return out.view(np.bool_)
    return out.astype(x.dtype)
