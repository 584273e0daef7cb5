"""Deterministic conformance workloads.

Every case is reconstructible from ``(tier, seed)`` alone — the fuzzer
reports carry the case name and seed so a mismatch can be replayed
exactly (see ``docs/testing.md``).  The generated grid covers:

* the statistical families of :mod:`repro.workloads.generators`;
* every adversarial pair of :mod:`repro.workloads.adversarial`;
* degenerate shapes: empty A and/or B, singletons, ``p >> N``;
* heavy duplicates (all-equal and Zipf vocabularies);
* **signed-zero stability probes** — float arrays where A's tie
  elements are ``-0.0`` and B's are ``+0.0``.  The two compare equal
  under ``<``/``<=``/``==`` (so every kernel treats them as ties) but
  ``numpy.signbit`` tells them apart, so the A-before-B tie rule is
  observable through value-only APIs: a stable merge must emit every
  signbit-set zero before every signbit-clear zero.

:func:`unsorted_cases` is the error grid: inputs with one descent in
``A``, in ``B`` or in both, which a validating merge must reject with
the ``NotSortedError`` an up-front scan of ``A`` then ``B`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.merge_path import partition_merge_path
from ..core.sequential import SUB_BLOCK_BYTES
from ..workloads.adversarial import ADVERSARIAL_PAIRS
from ..workloads.generators import sorted_pair

__all__ = [
    "MergeCase",
    "SortCase",
    "KwayCase",
    "merge_cases",
    "sort_cases",
    "kway_cases",
    "unsorted_cases",
    "stability_probe_pair",
]


@dataclass(frozen=True)
class MergeCase:
    """One differential-fuzzing input for a two-array merge."""

    name: str
    a: np.ndarray
    b: np.ndarray
    p: int
    #: True when the case carries signed-zero markers whose output order
    #: is meaningful only for implementations that promise stability.
    stability_probe: bool = False

    @property
    def total(self) -> int:
        return len(self.a) + len(self.b)


@dataclass(frozen=True)
class SortCase:
    """One differential-fuzzing input for a sort."""

    name: str
    x: np.ndarray
    p: int


@dataclass(frozen=True)
class KwayCase:
    """One differential-fuzzing input for a k-way merge."""

    name: str
    arrays: tuple[np.ndarray, ...] = field(default_factory=tuple)
    p: int = 1

    @property
    def total(self) -> int:
        return sum(len(arr) for arr in self.arrays)


def stability_probe_pair(
    seed: int, *, ties: int = 6, flank: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """A sorted float pair whose only ties are signed zeros.

    ``A`` contributes ``-0.0`` ties, ``B`` contributes ``+0.0`` ties,
    flanked by draws strictly below ``-1`` and strictly above ``1`` so
    both arrays stay sorted.  A stable merge must place all of A's
    zeros before all of B's.
    """
    rng = np.random.default_rng(seed)
    lo_a = np.sort(rng.integers(-50, -1, size=flank)).astype(np.float64)
    hi_a = np.sort(rng.integers(2, 50, size=flank)).astype(np.float64)
    lo_b = np.sort(rng.integers(-50, -1, size=flank)).astype(np.float64)
    hi_b = np.sort(rng.integers(2, 50, size=flank)).astype(np.float64)
    n_a = int(rng.integers(1, ties + 1))
    n_b = int(rng.integers(1, ties + 1))
    a = np.concatenate([lo_a, np.full(n_a, -0.0), hi_a])
    b = np.concatenate([lo_b, np.full(n_b, 0.0), hi_b])
    return a, b


def _tier_sizes(tier: str) -> tuple[int, int]:
    """(base array length, number of random seeds) per tier."""
    if tier == "quick":
        return 48, 2
    if tier == "full":
        return 256, 5
    raise ValueError(f"unknown tier {tier!r}; choose 'quick' or 'full'")


def merge_cases(tier: str, seed: int) -> Iterator[MergeCase]:
    """Yield the deterministic merge-case grid for a tier."""
    n, rounds = _tier_sizes(tier)
    empty = np.array([], dtype=np.int64)

    # Degenerate shapes: the cases field bug reports love most.
    yield MergeCase("empty_both", empty, empty, p=4)
    yield MergeCase("empty_a", empty, np.arange(5, dtype=np.int64), p=4)
    yield MergeCase("empty_b", np.arange(5, dtype=np.int64), empty, p=4)
    yield MergeCase(
        "singletons", np.array([3], dtype=np.int64), np.array([3], dtype=np.int64), p=4
    )
    yield MergeCase(
        "p_much_greater_than_n",
        np.array([1, 4], dtype=np.int64),
        np.array([2, 3, 5], dtype=np.int64),
        p=64,
    )

    # Adversarial families at tier size.
    for fam, make in ADVERSARIAL_PAIRS.items():
        a, b = make(n)
        yield MergeCase(f"adversarial:{fam}", a, b, p=8)

    # Statistical families, several deterministic seeds each.
    for r in range(rounds):
        for kind in ("uniform_ints", "uniform_floats", "zipf_duplicates"):
            a, b = sorted_pair(n, n + 11, seed + r, kind=kind)
            yield MergeCase(f"random:{kind}:{r}", a, b, p=5)

    # Stability probes (signed zeros).
    for r in range(rounds + 1):
        a, b = stability_probe_pair(seed + 101 * r)
        yield MergeCase(f"stability_probe:{r}", a, b, p=4, stability_probe=True)


def sort_cases(tier: str, seed: int) -> Iterator[SortCase]:
    """Yield the deterministic sort-case grid for a tier."""
    n, rounds = _tier_sizes(tier)
    rng = np.random.default_rng(seed)
    yield SortCase("empty", np.array([], dtype=np.int64), p=4)
    yield SortCase("singleton", np.array([9], dtype=np.int64), p=4)
    yield SortCase("all_equal", np.full(n, 7, dtype=np.int64), p=4)
    yield SortCase("already_sorted", np.arange(n, dtype=np.int64), p=4)
    yield SortCase("reversed", np.arange(n, dtype=np.int64)[::-1].copy(), p=4)
    yield SortCase(
        "p_much_greater_than_n", rng.integers(0, 9, size=5).astype(np.int64), p=64
    )
    for r in range(rounds):
        yield SortCase(
            f"random:uniform:{r}",
            rng.integers(0, 10 * n, size=2 * n).astype(np.int64),
            p=4,
        )
        yield SortCase(
            f"random:duplicates:{r}",
            rng.integers(0, 6, size=2 * n).astype(np.int64),
            p=4,
        )


def kway_cases(tier: str, seed: int) -> Iterator[KwayCase]:
    """Yield the deterministic k-way merge case grid for a tier."""
    n, rounds = _tier_sizes(tier)
    empty = np.array([], dtype=np.int64)
    yield KwayCase("no_arrays", (), p=4)
    yield KwayCase("all_empty", (empty, empty, empty), p=4)
    yield KwayCase(
        "one_nonempty", (empty, np.arange(4, dtype=np.int64), empty), p=4
    )
    yield KwayCase(
        "all_equal",
        (np.full(7, 3, dtype=np.int64), np.full(5, 3, dtype=np.int64)),
        p=9,
    )
    for r in range(rounds):
        rng = np.random.default_rng(seed + 31 * r)
        arrays = tuple(
            np.sort(rng.integers(0, n, size=int(rng.integers(0, n))))
            .astype(np.int64)
            for _ in range(int(rng.integers(2, 6)))
        )
        yield KwayCase(f"random:{r}", arrays, p=int(rng.integers(1, 9)))


def _with_descent(arr: np.ndarray, k: int) -> np.ndarray:
    """``arr`` (sorted) with exactly one descent, at index ``k``."""
    arr = arr.copy()
    arr[k + 1] = arr[k] - 1
    return arr


def unsorted_cases(tier: str, seed: int) -> Iterator[MergeCase]:
    """Yield the deterministic unsorted-input grid for a tier.

    Each case has a descent in ``A``, ``B`` or both, placed mid-array,
    at a segment cut of the sorted inputs' partition, in and across the
    sub-block cuts of one long segment (``p=1`` over more sub-blocks of
    :func:`~repro.core.sequential.merge_into` than it sorts whole), or
    as a NaN before a number.
    """
    n, _ = _tier_sizes(tier)
    a, b = sorted_pair(n, n + 11, seed, kind="uniform_ints")
    yield MergeCase("descent_a", _with_descent(a, n // 2), b, p=4)
    yield MergeCase("descent_b", a, _with_descent(b, 3), p=4)
    yield MergeCase("descent_both", _with_descent(a, n - 2),
                    _with_descent(b, 0), p=3)
    # the pair across the first segment's right cut, for p = 2..5
    for p in range(2, 6):
        k = partition_merge_path(a, b, p).segments[0].a_end - 1
        yield MergeCase(f"descent_at_cut:{p}", _with_descent(a, k), b, p=p)
    fa, fb = sorted_pair(n, n, seed + 1, kind="uniform_floats")
    fa = fa.copy()
    fa[n // 3] = np.nan  # NaN sorts last: a descent although > is false
    yield MergeCase("nan_before_number", fa, fb, p=2)
    big = 150_000  # int64: 2 x 150,000 elements are ten sub-blocks
    la = np.arange(0, 2 * big, 2, dtype=np.int64)
    lb = np.arange(1, 2 * big, 2, dtype=np.int64)
    yield MergeCase("descent_late_a_early_b", _with_descent(la, big - 500),
                    _with_descent(lb, 100), p=1)
    yield MergeCase("descent_late_b", la, _with_descent(lb, big - 2), p=2)
    # The interleave puts the first sub-block's A cut at ``k + 1``; a
    # raised ``A[k]`` leaves it there, so the descent straddles the cut.
    k = SUB_BLOCK_BYTES // la.itemsize // 2 - 1
    cross = la.copy()
    cross[k] = cross[k + 1] + 1
    yield MergeCase("descent_across_sub_block_cut", cross, lb, p=1)
