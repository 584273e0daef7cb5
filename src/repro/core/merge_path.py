"""Diagonal binary search and merge-path partitioning (Theorem 14).

This is the paper's key device: the intersection of the merge path with
grid cross diagonal ``d`` can be found with a binary search that probes
only ``O(log min(|A|, |B|))`` element pairs, without constructing either
the path or the matrix.  ``p - 1`` equispaced diagonals then split the
merge into ``p`` segments whose lengths differ by at most one
(Corollary 7: perfect load balance).

Coordinates
-----------
A point ``(i, j)`` on grid diagonal ``d = i + j`` means "``i`` elements
of ``A`` and ``j`` elements of ``B`` consumed".  For a fixed ``d`` the
feasible ``i`` range is ``[max(0, d - |B|), min(d, |A|)]``; the search
returns the unique ``i`` such that

* ``A[i - 1] <= B[d - i]``   (or ``i`` is at its lower bound), and
* ``A[i] > B[d - i - 1]``    (or ``i`` is at its upper bound),

which encodes the stable tie-break *A before equal B* used throughout
the package (a down move on ``A[i] <= B[j]``, per Section II.A).

``<=`` here is NumPy's sort order, in which NaN sorts after every other
value and equals itself: ``x <= y or y != y``.  A plain ``<=`` is false
against NaN, which would make the cuts on neighbouring diagonals
non-monotone for float inputs holding NaN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import InputError
from ..obs.tracer import NULL_SPAN
from ..types import MergeStats, Partition, PathPoint, Segment
from ..validation import as_array, check_mergeable, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Tracer

__all__ = [
    "diagonal_bounds",
    "diagonal_intersection",
    "diagonal_intersections_vectorized",
    "partition_merge_path",
    "partition_at_positions",
    "max_search_steps",
]


def diagonal_bounds(d: int, a_len: int, b_len: int) -> tuple[int, int]:
    """Feasible range ``[lo, hi]`` of A-consumed counts on grid diagonal ``d``.

    Raises :class:`~repro.errors.InputError` when ``d`` is outside
    ``[0, a_len + b_len]``.
    """
    if not 0 <= d <= a_len + b_len:
        raise InputError(
            f"diagonal {d} outside [0, {a_len + b_len}] for |A|={a_len}, |B|={b_len}"
        )
    return max(0, d - b_len), min(d, a_len)


def max_search_steps(a_len: int, b_len: int) -> int:
    """Theorem 14 upper bound on binary-search probes for one diagonal.

    A diagonal crosses at most ``min(|A|, |B|) + 1`` candidate points, so
    bisection needs at most ``ceil(log2(min(|A|,|B|) + 1))`` probes.
    """
    span = min(a_len, b_len) + 1
    return int(np.ceil(np.log2(span))) if span > 1 else 0


def diagonal_intersection(
    a: np.ndarray,
    b: np.ndarray,
    d: int,
    stats: MergeStats | None = None,
) -> PathPoint:
    """Locate the merge path's intersection with grid diagonal ``d``.

    Pure binary search, O(log min(|A|, |B|)) comparisons, no allocation.
    When ``stats`` is given, each probe increments
    ``stats.search_probes`` (used by the T14 experiment to check the
    bound of Theorem 14).

    Returns the :class:`~repro.types.PathPoint` ``(i, d - i)``.
    """
    lo, hi = diagonal_bounds(d, len(a), len(b))
    # Invariant: the answer i* lies in [lo, hi].  Probe mid: if
    # A[mid] <= B[d - 1 - mid] (NaN last), the path consumes A[mid]
    # before reaching this diagonal, so i* > mid; otherwise i* <= mid.
    while lo < hi:
        mid = (lo + hi) // 2
        if stats is not None:
            stats.search_probes += 1
        y = b[d - 1 - mid]
        if a[mid] <= y or y != y:
            lo = mid + 1
        else:
            hi = mid
    return PathPoint(int(lo), int(d - lo))


def diagonal_intersections_vectorized(
    a: np.ndarray,
    b: np.ndarray,
    diagonals: Sequence[int] | np.ndarray,
    stats: MergeStats | None = None,
) -> np.ndarray:
    """Find intersections with many diagonals at once, vectorized.

    All ``len(diagonals)`` binary searches proceed in lockstep: one numpy
    fancy-indexing comparison per bisection round, ``ceil(log2)`` rounds
    total.  This mirrors how the p processors of Algorithm 1 search their
    diagonals concurrently; the GPU tile partition
    (:mod:`repro.gpu.blocked_merge`) uses it.  The merge-path partition
    searches one diagonal at a time instead: a lockstep round costs
    several numpy calls whatever the diagonal count.

    When ``stats`` is given, ``stats.search_probes`` counts the element
    comparisons actually performed (active searches per round), the same
    quantity the scalar search counts.

    Returns an int64 array ``i`` of A-consumed counts, one per diagonal
    (``j = d - i``).
    """
    ds = np.asarray(diagonals, dtype=np.int64)
    if ds.ndim != 1:
        raise InputError("diagonals must be a 1-D sequence")
    if ds.size and (ds.min() < 0 or ds.max() > len(a) + len(b)):
        raise InputError("diagonal index out of range")
    lo = np.maximum(0, ds - len(b))
    hi = np.minimum(ds, len(a))
    # Lockstep bisection: every active search halves its interval each
    # round, so the loop runs at most ceil(log2(min(|A|,|B|)+1)) times.
    while True:
        active = lo < hi
        if not active.any():
            break
        if stats is not None:
            stats.search_probes += int(active.sum())
        mid = (lo + hi) // 2
        am = np.where(active, mid, 0)
        bm = np.where(active, ds - 1 - mid, 0)
        bv = b[bm]
        take_a = (a[am] <= bv) | (bv != bv)  # NaN last
        go_up = active & take_a
        go_dn = active & ~take_a
        lo = np.where(go_up, mid + 1, lo)
        hi = np.where(go_dn, mid, hi)
    return lo


def _search_points(
    a: np.ndarray,
    b: np.ndarray,
    pos: list[int],
    tracer: "Tracer | None",
) -> tuple[list[PathPoint], tuple[int, ...]]:
    """Path points on the diagonals ``pos`` and the probes spent on each,
    one scalar :func:`diagonal_intersection` per diagonal."""
    span = (
        tracer.span("partition.search", diagonals=len(pos), a_len=len(a),
                    b_len=len(b))
        if tracer is not None
        else NULL_SPAN
    )
    with span:
        probes = MergeStats()
        points, search_steps = [], []
        for d in pos:
            before = probes.search_probes
            points.append(diagonal_intersection(a, b, d, stats=probes))
            search_steps.append(probes.search_probes - before)
        span.set(probes=probes.search_probes)
    return points, tuple(search_steps)


def partition_at_positions(
    a: np.ndarray,
    b: np.ndarray,
    positions: Sequence[int],
    *,
    check: bool = True,
    tracer: "Tracer | None" = None,
) -> Partition:
    """Partition the merge path at arbitrary output positions.

    ``positions`` are interior cut points in the output array (strictly
    increasing, each in ``(0, |A|+|B|)``).  Returns a
    :class:`~repro.types.Partition` whose segment boundaries are the
    merge path's intersections with the grid diagonals at those
    positions (Theorem 9: output position == diagonal index).

    The partition's ``search_steps`` count the probes spent on each
    diagonal; ``tracer`` records one ``partition.search`` span covering
    the whole search.
    """
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)
    n = len(a) + len(b)
    pos = list(positions)
    if any(not 0 < q < n for q in pos):
        raise InputError(f"cut positions must lie strictly inside (0, {n})")
    if any(q2 <= q1 for q1, q2 in zip(pos, pos[1:])):
        raise InputError("cut positions must be strictly increasing")

    points, search_steps = _search_points(a, b, pos, tracer)
    bounds = [PathPoint(0, 0), *points, PathPoint(len(a), len(b))]
    segments = tuple(
        Segment(
            index=k,
            a_start=s.i,
            a_end=e.i,
            b_start=s.j,
            b_end=e.j,
            out_start=s.diagonal,
            out_end=e.diagonal,
        )
        for k, (s, e) in enumerate(zip(bounds, bounds[1:]))
    )
    return Partition(
        a_len=len(a),
        b_len=len(b),
        segments=segments,
        search_steps=search_steps,
    )


def partition_merge_path(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    *,
    check: bool = True,
    tracer: "Tracer | None" = None,
) -> Partition:
    """Split the merge of ``a`` and ``b`` into ``p`` equisized segments.

    This is the partitioning step of Algorithm 1: processor ``k``'s
    segment starts at output position ``k * (|A|+|B|) / p`` (rounded so
    segment lengths differ by at most one element).

    Parameters
    ----------
    a, b:
        Sorted input arrays.
    p:
        Number of segments (processors).  May exceed ``|A| + |B|``, in
        which case trailing segments are empty.
    check:
        Validate sortedness/dtypes (skip for internal hot paths).
    tracer:
        Optional :class:`~repro.obs.Tracer`; records one
        ``partition.search`` span with diagonal and probe counts.

    Returns
    -------
    Partition
        ``p`` segments tiling the merge path in order; guaranteed
        ``max_imbalance <= 1``.  Its ``search_steps`` count the probes
        spent on each searched diagonal (Theorem 14).
    """
    check_positive(p, "p")
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)
    n = len(a) + len(b)
    if p == 1 or n == 0:
        seg = Segment(0, 0, len(a), 0, len(b), 0, n)
        segs = (seg,) + tuple(
            Segment(k, len(a), len(a), len(b), len(b), n, n) for k in range(1, p)
        )
        return Partition(len(a), len(b), segs)
    # Equispaced cuts; np.linspace-style integer rounding keeps lengths
    # within one of each other.  Processor k's boundary is (k*n)//p —
    # exactly the DiagonalNum formula of Algorithm 1's step 1, so
    # segment k here is the work processor k's program would do (the
    # PRAM tests rely on this alignment, including the p > n case where
    # some interior segments are empty).
    raw = [(k * n) // p for k in range(1, p)]
    unique = sorted({q for q in raw if 0 < q < n})
    points, search_steps = _search_points(a, b, unique, tracer)
    point_at = {0: PathPoint(0, 0), n: PathPoint(len(a), len(b))}
    point_at.update(zip(unique, points))
    boundaries = [0, *raw, n]
    segments = []
    for k, (q0, q1) in enumerate(zip(boundaries, boundaries[1:])):
        s = point_at[q0]
        e = point_at[q1]
        segments.append(
            Segment(
                index=k,
                a_start=s.i, a_end=e.i,
                b_start=s.j, b_end=e.j,
                out_start=q0, out_end=q1,
            )
        )
    return Partition(len(a), len(b), tuple(segments), search_steps)
