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
    Copy ``A`` then ``B`` into the output and sort the part where the
    two runs overlap with one NumPy sort, one cache-sized sub-block of
    the output at a time (:func:`merge_into`).  The sort kind is
    :func:`merge_kind`'s: for an integer dtype, ``"quicksort"`` where
    this host's NumPy runs it as a SIMD sort that beats the stable sort
    on a probe (integers that compare equal have identical bits, so the
    bytes are the stable sort's); else ``"stable"``, which on numeric
    dtypes wider than 16 bits is timsort, a galloping merge of the two
    runs in linear time (narrower types get NumPy's radix sort).  Runs
    of very unequal length take ``"stable"`` whatever the probe said:
    timsort gallops through the long one (:data:`GALLOP_RATIO`).  The
    GIL is released either way, and ``A`` stays before equal ``B``.
    This is the production kernel, the ``seq_merge`` leaf under the
    merge-path split (Algorithm 1 leaves the in-segment merge open), and
    plays the role numba-jitted loops play in CPU merge-path libraries.

Only the vectorized kernel runs in production: :func:`merge_into` writes
it into a caller-provided output slice, which is how parallel workers
write their disjoint output ranges without any synchronization.  The two
Python kernels are step-counting tools and references (``KERNELS``).

:func:`sort_chunk` is the matching leaf of the sorts: every run the
package forms (round 0 of the parallel sort, external run formation,
the server's small sorts) is one call of it.

Every NumPy sort kind the package picks is picked here.  The merge
leaves (:func:`merge_into` and the k-way :func:`merge_runs_into`) take
theirs from :func:`merge_kind`, which times the two kinds once per
process and integer dtype: an unconditional ``"quicksort"`` would be
6-10x slower than the stable sort on a host without a SIMD sort.  The
answer is a property of the kernel on this host, not a routing
threshold, so it is not part of the autotuner's cached thresholds; it
can change the speed of a merge but never its bytes.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import InputError, NotSortedError
from ..types import MergeStats
from ..validation import (
    as_array, check_mergeable, first_disorder, first_disorder_split,
)
from .merge_path import diagonal_intersections_vectorized

__all__ = [
    "merge_two_pointer",
    "merge_galloping",
    "merge_vectorized",
    "merge_into",
    "merge_into_fresh",
    "merge_runs_into",
    "merge_kind",
    "sort_chunk",
    "sort_keys",
    "merge_keys",
    "sorted_as",
    "KERNELS",
    "SUB_BLOCK_BYTES",
    "WHOLE_SORT_SUB_BLOCKS",
    "GALLOP_RATIO",
    "result_dtype",
]

#: Output bytes per sub-block of :func:`merge_into`: small enough that a
#: sub-block's two input slices, its output and the sort's scratch (a
#: timsort merge buffer; quicksort needs none) stay in a core's L2
#: cache, large enough that the per-block Python work, which holds the
#: GIL, is noise next to the sort.  Re-measured with the SIMD quicksort
#: on a 2-vCPU AVX-512 VM, merging 2 x 2^22 on one thread: 256 KiB was
#: best or within noise of it for int32 (4.8-4.9 ns/elem; 64 KiB
#: 4.8-6.0, 1 MiB 5.3-6.1) and for float64 (10.4-13.0; 64 KiB
#: 13.4-15.1).  Merging 2 x 2^24 int32 at p=2, where smaller blocks
#: mean more GIL-holding Python work per element, read
#: ``speedup_vs_numpy`` 1.51 at 16 KiB, 2.39 at 32 KiB, 3.13 at 64 KiB,
#: 3.14-3.93 at 128 KiB and 3.38-3.52 at 256 KiB.
SUB_BLOCK_BYTES = 256 * 1024

#: A call of at most this many sub-blocks (2 MiB of output at the
#: default size) is one copy and one sort.  Its inputs and output fit
#: an L2 cache whole, so the walk's per-block work (the lockstep cuts,
#: a scan per side, a sort call) is pure cost: measured against one
#: checked sort on a 2-vCPU x86 VM with a 2 MiB L2 (int32, int64,
#: float64), the checked walk was 4-10% slower at 4 and 8 sub-blocks,
#: 0-4% slower at 16, 6-8% faster at 32 and 9-14% faster at 64.  With
#: the SIMD quicksort (int32, three runs) the walk read 1.23-1.32x one
#: sort's time at 4 sub-blocks, 0.87-1.10x at 8 and 0.98-1.01x at 12;
#: float64 (stable) read 1.21-1.37x, 1.02-1.10x and 1.08-1.13x.
WHOLE_SORT_SUB_BLOCKS = 8

#: The merge leaves sort an integer dtype with ``"quicksort"`` only if
#: it took less than this share of the stable sort's time on the probe
#: (:func:`merge_kind`).  Where NumPy has no SIMD sort for the dtype,
#: quicksort is introsort and reads 6-10x slower than the stable sort;
#: where it has one, it read 0.52-0.75x on a sub-block of int32 on an
#: AVX-512 VM (about 100 probes, some beside a running merge), and with
#: AVX2 alone 0.82-0.96x, near enough a tie that either answer costs
#: little.
_QUICKSORT_SHARE = 0.85

#: Two runs to merge take ``"stable"``, whatever :func:`merge_kind`
#: answers, once one is at least this many times the other (after the
#: trim to their overlap, :func:`_sort_runs`).  Timsort then gallops:
#: each element of the short run finds its place in the long one by an
#: exponential search, O(m log(n/m)) comparisons for runs of m and n,
#: while quicksort sorts all m + n elements.  Quicksort's time over the
#: stable sort's, copy included, for two sorted uniform int32 runs
#: whose short side held 2^6-2^13 elements, on a 2-vCPU AVX-512 VM
#: (seven runs over distinct inputs): 0.51-1.05 at ratio 1, 0.82-1.47
#: at 4, 0.94-1.52 at 6, 1.01-1.78 at 8, 1.06-2.03 at 16 and 1.19-3.10
#: at 32.  Below 8 the answer depends on the size and the run, and in
#: the bench's merge_small a ratio of 4 made its pairs of ratio 4-8
#: slower (NumPy's time over the call's, 0.55-0.58 against 0.63-0.64).
GALLOP_RATIO = 8

#: Length of one probe input: one sub-block, as the walk sorts it, or
#: fewer elements of a dtype narrower than 4 bytes (to bound the probe's
#: cost where quicksort is slow).  Bound at import, so that a test that
#: shrinks ``SUB_BLOCK_BYTES`` does not shrink the probe.
_PROBE_BYTES = SUB_BLOCK_BYTES
_PROBE_MAX_ELEMENTS = 2**16

#: Distinct probe inputs per sort kind; each kind keeps its best time.
_PROBE_INPUTS = 2

_PROBE_LOCK = threading.Lock()


def _probe_runs(buf: np.ndarray, seed: int) -> None:
    """Fill ``buf`` with two interleaved sorted runs of ``len(buf) // 2``
    and the rest of its values, as two sorted samples of one uniform
    range would be: cumulative sums of exponential gaps, so no sort
    makes them.  The gaps come from a fixed integer hash of each
    position (no random-number state, and no ``numpy.random`` import
    in a process that has none), whose top 23 bits become a float32 in
    ``[1, 2)`` in place: two half-length temporaries at most."""
    info = np.iinfo(buf.dtype)
    lo, hi = max(info.min, -2**30), min(info.max, 2**30)
    half = len(buf) // 2
    for k, run in enumerate((buf[:half], buf[half:])):
        x = np.arange(len(run), dtype=np.uint32)
        x += np.uint32((2 * seed + k) * 0x9E3779B9 % 2**32)
        for shift, mul in ((16, 0x7FEB352D), (15, 0x846CA68B)):
            x ^= x >> shift
            x *= np.uint32(mul)
        x >>= 9
        x |= np.uint32(0x3F800000)
        steps = x.view(np.float32)
        np.subtract(2, steps, out=steps)  # uniform on (0, 1]
        np.log(steps, out=steps)          # minus an exponential gap
        np.cumsum(steps, out=steps)
        steps *= (hi - lo) / steps[-1]
        steps += lo
        run[:] = steps
        del x, steps  # freed before the next half allocates its own


def _time_kinds(dtype: np.dtype) -> tuple[float, float]:
    """Best seconds of the stable sort and of quicksort on the same
    sub-blocks of two interleaved ``dtype`` runs.  Each input is fresh,
    so neither time comes from a branch predictor trained on it.  A
    quicksort that took over twice the stable sort's time ends the
    probe early: no later input would turn that around.

    Each kind sorts its own copy of an input, made again in the one
    buffer rather than kept in a second: freed probe memory can stay
    in the allocator's heap and count in the process's peak RSS."""
    n = max(2, min(_PROBE_BYTES // dtype.itemsize, _PROBE_MAX_ELEMENTS))
    best = {"stable": float("inf"), "quicksort": float("inf")}
    buf = np.empty(n, dtype=dtype)
    for seed in range(_PROBE_INPUTS):
        for kind in best:
            _probe_runs(buf, seed)
            t0 = time.perf_counter()
            buf.sort(kind=kind)
            best[kind] = min(best[kind], time.perf_counter() - t0)
        if best["quicksort"] > 2 * best["stable"]:
            break
    return best["stable"], best["quicksort"]


@functools.cache
def merge_kind(dtype: np.dtype) -> str:
    """The NumPy sort kind every merge leaf uses for ``dtype``.

    Integers that compare equal have identical bits, so for integer
    dtypes (kinds ``'i'`` and ``'u'``) any sort kind gives the bytes of
    the stable sort.  NumPy hands ``"quicksort"`` to a SIMD sort where
    the CPU and the dtype have one, and then it beats timsort on two
    runs (a 256 KiB sub-block of int32 on an AVX-512 VM: about 5 against
    8 ns/elem); without one it is introsort and runs 6-10x slower.  So
    the first call per dtype times both kinds on one sub-block of
    interleaved runs (:func:`_time_kinds`, 3-5 ms) and answers
    ``"quicksort"`` only if it took less than :data:`_QUICKSORT_SHARE`
    of the stable sort's time.  The answer holds for the process.
    Every other dtype answers ``"stable"`` without timing: equal floats
    can differ in bits (``-0.0``/``0.0``, NaN payloads), and so can
    equal bools.  The answer never changes a result, only the speed.
    """
    if dtype.kind not in "iu":
        return "stable"
    with _PROBE_LOCK:  # a concurrent first call waits for this answer
        return _probed_kind(dtype)


@functools.cache
def _probed_kind(dtype: np.dtype) -> str:
    """:func:`merge_kind` of an integer dtype, timed once per process."""
    stable, quick = _time_kinds(dtype)
    return "quicksort" if quick < _QUICKSORT_SHARE * stable else "stable"


def _sort_runs(buf: np.ndarray, split: int, kind: str) -> None:
    """Merge the sorted runs ``buf[:split]`` and ``buf[split:]`` in
    place: sort ``buf`` with ``kind``, only where the runs overlap, and
    with ``"stable"`` where one run of the overlap is at least
    :data:`GALLOP_RATIO` times the other.

    Timsort skips the head of ``A`` that precedes all of ``B`` and the
    tail of ``B`` that follows all of ``A`` by itself; quicksort does
    not, so the trim is done here.  A disjoint seam (``A``'s last <=
    ``B``'s first) sorts nothing.  Otherwise two O(1) probes look for
    at least an eighth of a side to trim before one ``searchsorted``
    per side pays for it: the head of ``A`` <= ``B``'s first
    (``"right"``: equal ``A`` first) and the tail of ``B`` >= ``A``'s
    last (``"left"``) are already in place.  Comparisons and
    ``searchsorted`` order values as the sort does (NaN last; bools as
    their bytes), and a probe that meets a NaN fails, so the result is
    the sort of the whole of ``buf``, bit for bit.

    The kind changes only from ``"quicksort"``, which :func:`merge_kind`
    answers for integer dtypes alone, to ``"stable"``: equal integers
    have identical bits, so the bytes are the same either way.
    """
    lb = len(buf) - split
    if not split or not lb:
        return
    keys = sort_keys(buf)
    a_last, b_first = keys[split - 1], keys[split]
    if a_last <= b_first:
        return
    lo, hi = 0, len(buf)
    if b_first > keys[split >> 3]:
        lo = int(keys[:split].searchsorted(b_first, "right"))
    if a_last < keys[hi - 1 - (lb >> 3)]:
        hi = split + int(keys[split:].searchsorted(a_last, "left"))
    na, nb = split - lo, hi - split
    if na >= GALLOP_RATIO * nb or nb >= GALLOP_RATIO * na:
        kind = "stable"
    buf[lo:hi].sort(kind=kind)


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

    Allocates the output and runs :func:`merge_into_fresh` on it (a
    fresh output cannot alias the inputs, so the alias probes are
    skipped): ``A`` and ``B`` are copied in, in that order, and one sort
    of their overlap merges the two runs.  Ties keep ``A`` before equal
    ``B``: the sort is stable, or an integer sort whose equal keys have
    identical bits (:func:`merge_kind`, or ``"stable"`` for runs of
    very unequal length, :data:`GALLOP_RATIO`).  With ``check`` the
    kernel's own scan checks the order of the :func:`merge_keys` (two
    bool arrays as their bytes), the order the sort gives them, and an
    unsorted input raises
    :class:`~repro.errors.NotSortedError` for the first descent of
    ``A``, else of ``B``.
    """
    a, b = _prepare(a, b, False)
    ka, kb = merge_keys(a, b)
    if check:
        check_mergeable(ka, kb, check_order=False)
    out = np.empty(len(a) + len(b), dtype=result_dtype(ka, kb))
    i, j = merge_into_fresh(out, ka, kb, check=check)
    if i is not None:
        raise NotSortedError("A", i)
    if j is not None:
        raise NotSortedError("B", j)
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

    The kernel copies ``a`` and then ``b`` into ``out`` and sorts the
    part where the two runs overlap (:func:`_sort_runs`: nothing on a
    disjoint seam, and the head of ``a`` below ``b`` and the tail of
    ``b`` above ``a`` are already in place) with the kind
    :func:`merge_kind` chose for ``out``'s dtype.  For an integer
    dtype on a host whose NumPy has a SIMD sort for it, that is
    ``"quicksort"``: equal integers have identical bits, so it gives
    the stable sort's bytes, at about 5 against 8 ns/elem on a sub-block
    of int32 (AVX-512).  Otherwise it is ``"stable"``: for two sorted
    runs a single galloping timsort merge, O(|A|+|B|) work with a
    scratch buffer no larger than the smaller run (NumPy sorts types of
    16 bits or less by radix sort instead, also linear).  Two runs of
    very unequal length, one at least :data:`GALLOP_RATIO` times the
    other after the trim, take ``"stable"`` whatever the dtype's kind:
    timsort's galloping merge then does O(m log(n/m)) comparisons for
    runs of m and n elements, where quicksort sorts all m + n.  The GIL
    is released on numeric dtypes, and a non-contiguous ``out`` is sorted
    through a contiguous copy.  A call of more than :data:`WHOLE_SORT_SUB_BLOCKS`
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

    With ``check`` the kernel also validates its input while it is
    cache-hot: it returns ``(i, j)``, the first descent of ``a`` and of
    ``b`` in NumPy's order (:func:`~repro.validation.first_disorder`;
    ``None`` where there is none).  A whole-sort call whose ``a``, ``b``
    and ``out`` share one dtype scans ``out`` right after the copy, both
    sides in one comparison pass
    (:func:`~repro.validation.first_disorder_split`); a promoted pair
    scans ``a`` and then ``b`` before the cast, which could hide a
    descent (two int64 past 2**53 that round to one float64).  The
    sub-block walk scans each sub-block's two slices.  After a descent
    it sorts nothing more, so an unsorted input still costs O(N).  A
    descent of ``a`` wins, and then ``j`` may be ``None`` although
    ``b`` has one; the walk keeps scanning ``a`` after a descent of
    ``b`` alone.  On a reported descent ``out`` holds no meaningful
    result.  Without ``check`` it returns ``(None, None)``.

    ``out`` may be exactly the ``[a | b]`` layout (``a`` already at
    ``out[:len(a)]`` and ``b`` right after it), in which case that side
    is not copied and the call is one sort at any size.  Any other
    overlap of ``out`` with ``a`` or ``b`` raises
    :class:`~repro.errors.InputError`: copying the first side would
    overwrite the second before it was read.  A caller that has just
    allocated ``out`` calls :func:`merge_into_fresh`, which skips these
    two alias probes.

    The kernel counts nothing: a segment's work is fixed by its lengths,
    so :func:`repro.execution.engine.run_segments` publishes it from the
    plan (``|A| + |B|`` moves and, with both sides non-empty,
    ``|A| + |B| - 1`` comparisons, the worst case of a linear merge).
    """
    return _merge_placed(out, a, b, _in_place(out, a, 0, "A"),
                         _in_place(out, b, len(a), "B"), check)


def merge_into_fresh(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    check: bool = False,
) -> tuple[int | None, int | None]:
    """:func:`merge_into` for an ``out`` the caller has just allocated.

    A fresh array cannot overlap ``a`` or ``b``, so the two alias
    probes of :func:`merge_into` (a ``np.may_share_memory`` call per
    side, 0.8 µs in all, the cost of copying about 2000 int32) are
    skipped; everything else, the checks included, is the same.  The
    one-segment merges below the serial cutover
    (:func:`repro.execution.engine.merge_whole`) and
    :func:`merge_vectorized` call it on the output they allocate.
    """
    return _merge_placed(out, a, b, False, False, check)


def _merge_placed(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    a_placed: bool,
    b_placed: bool,
    check: bool,
) -> tuple[int | None, int | None]:
    """The body of :func:`merge_into`; ``a_placed`` and ``b_placed`` say
    which side already sits at its place in ``out``."""
    la = len(a)
    n = la + len(b)
    if len(out) != n:
        raise InputError(
            f"output slice length {len(out)} != |A|+|B| = {n}"
        )
    if (n * out.itemsize <= WHOLE_SORT_SUB_BLOCKS * SUB_BLOCK_BYTES
            or a_placed or b_placed):
        # A promoted pair is scanned before the cast, which can hide a
        # descent (int64 past 2**53 as float64); a same-dtype pair is
        # scanned in ``out`` in one pass, right after the copy.
        one_scan = check and a.dtype == b.dtype == out.dtype
        if check and not one_scan:
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
        if one_scan:
            i, j = first_disorder_split(out, la)
            if i is not None or j is not None:
                return i, j
        _sort_runs(out, la, merge_kind(out.dtype))
        return None, None

    kind = merge_kind(out.dtype)
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
        if j is None:
            _sort_runs(block, i1 - i0, kind)
        i0, d0 = i1, d1
    return None, j


def merge_runs_into(out: np.ndarray, runs: Sequence[np.ndarray]) -> None:
    """Stable merge of ``T`` sorted ``runs`` written into ``out``.

    The k-way form of :func:`merge_into`: copies the runs back to back
    into ``out`` and sorts it in place with the kind :func:`merge_kind`
    chose for ``out``'s dtype.  The stable sort is timsort, which finds
    the ``T`` runs, merges them in ``O(n log T)`` and emits equal keys
    in run order (run 0 first); the SIMD quicksort an integer dtype may
    get instead is ``O(n log n)`` but much faster per element (2^20
    int32 in 16 runs on an AVX-512 VM: 5.6 against 23 ns/elem), and its
    equal keys have identical bits.  Either way the result equals
    ``np.sort(np.concatenate(runs), kind="stable")`` bit for bit.
    """
    pos = 0
    for run in runs:
        out[pos:pos + len(run)] = run
        pos += len(run)
    if pos != len(out):
        raise InputError(f"output length {len(out)} != total run length {pos}")
    out.sort(kind=merge_kind(out.dtype))


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
    return x.view(np.uint8) if x.dtype.kind == "b" else x


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
    returns it: bools are viewed back, and a byte order the sorts
    normalised to native is restored.  Merges call it only to view bool
    keys back: their output is native, as ``np.concatenate`` makes it."""
    if out.dtype == x.dtype:
        return out
    if x.dtype == np.bool_:
        return out.view(np.bool_)
    return out.astype(x.dtype)
