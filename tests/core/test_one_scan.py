"""The one-pass order scan of a checked whole-sort merge.

``merge_into(..., check=True)`` on a call small enough to be one copy and
one sort scans ``out`` once, after the copy, when ``a``, ``b`` and
``out`` share a dtype (``validation.first_disorder_split``).  It must
report exactly what a scan of ``a`` and then of ``b`` with
``first_disorder`` reports, and never the pair across the ``A|B``
boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import validation
from repro.core import sequential
from repro.core.sequential import merge_into, merge_keys, merge_vectorized
from repro.errors import NotSortedError
from repro.validation import first_disorder, first_disorder_split

ELEMENTS = {
    "int64": st.integers(-4, 4),
    # Bool keys: two bool arrays merge as their bytes, so a true byte 2
    # sorts after a true byte 1.
    "uint8": st.integers(0, 2),
    "float64": st.sampled_from(
        [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]),
}


@st.composite
def sides(draw, dtype):
    """A mostly sorted array: sorted in NumPy's order, then with at most
    one adjacent pair swapped (a descent, if the two differ)."""
    values = draw(st.lists(ELEMENTS[dtype], max_size=12))
    arr = np.sort(np.array(values, dtype=dtype), kind="stable")
    if len(arr) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(arr) - 2))
        arr[[k, k + 1]] = arr[[k + 1, k]]
    return arr


def first_descent(arr: np.ndarray) -> int | None:
    """NumPy's order pair by pair: a larger value, or a NaN, before a
    non-NaN is a descent."""
    for k in range(len(arr) - 1):
        x, y = arr[k], arr[k + 1]
        if x > y or (x != x and y == y):
            return k
    return None


def expected(a: np.ndarray, b: np.ndarray) -> tuple[int | None, int | None]:
    """A scan of ``a``, then (only when ``a`` is sorted) of ``b``."""
    i = first_disorder(a)
    assert (i, first_disorder(b)) == (first_descent(a), first_descent(b))
    return (i, None) if i is not None else (None, first_disorder(b))


@st.composite
def same_dtype_pairs(draw):
    dtype = draw(st.sampled_from(sorted(ELEMENTS)))
    return draw(sides(dtype)), draw(sides(dtype))


@settings(max_examples=300, deadline=None)
@given(pair=same_dtype_pairs())
def test_split_scan_matches_a_scan_per_side(pair):
    a, b = pair
    assert first_disorder_split(np.concatenate([a, b]), len(a)) == expected(a, b)


@settings(max_examples=300, deadline=None)
@given(pair=same_dtype_pairs(), in_place=st.booleans())
def test_checked_merge_into_reports_each_sides_first_descent(pair, in_place):
    a, b = pair
    out = np.concatenate([a, b]) if in_place else np.empty(len(a) + len(b), a.dtype)
    if in_place:
        a, b = out[:len(a)], out[len(a):]
    want = expected(a.copy(), b.copy())
    ref = np.sort(np.concatenate([a, b]), kind="stable")
    assert merge_into(out, a, b, check=True) == want
    if want == (None, None):
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("a, b, want", [
    # A descent across the A|B boundary is the merge's work, not an error.
    ([5, 6], [1, 2], (None, None)),
    ([9], [0], (None, None)),
    # At index 0 and at n - 2 of either side.
    ([3, 1, 4], [0, 1], (0, None)),
    ([1, 2, 3, 0], [0, 1], (2, None)),
    ([0, 1], [3, 1, 4], (None, 0)),
    ([0, 1], [1, 2, 3, 0], (None, 2)),
    # A's descent wins over B's.
    ([2, 1], [5, 4], (0, None)),
    # Empty and length-1 sides.
    ([], [2, 1], (None, 0)),
    ([2, 1], [], (0, None)),
    ([7], [], (None, None)),
    ([], [], (None, None)),
])
def test_split_scan_cases(a, b, want):
    a, b = np.array(a, np.int64), np.array(b, np.int64)
    assert first_disorder_split(np.concatenate([a, b]), len(a)) == want
    assert merge_into(np.empty(len(a) + len(b), np.int64), a, b, check=True) == want


def test_nan_before_a_number_is_a_descent_in_either_side():
    nan = np.nan
    for a, b, want in [
        ([1.0, nan, 0.5], [0.25], (1, None)),
        ([0.25], [1.0, nan, 0.5], (None, 1)),
        ([0.0, nan], [-1.0, nan], (None, None)),  # NaN last, then the boundary
        ([-0.0, 0.0, -0.0], [nan, nan], (None, None)),  # equal zeros
    ]:
        a, b = np.array(a), np.array(b)
        assert first_disorder_split(np.concatenate([a, b]), len(a)) == want


def _spy(monkeypatch) -> list[int]:
    seen: list[int] = []
    real = validation.first_disorder

    def spy(arr):
        seen.append(len(arr))
        return real(arr)

    for module in (validation, sequential):
        monkeypatch.setattr(module, "first_disorder", spy)
    return seen


@pytest.mark.parametrize("dtype", ["int32", "float64", "uint8"])
def test_same_dtype_checked_merge_makes_no_per_side_scan(monkeypatch, dtype):
    seen = _spy(monkeypatch)
    a = np.arange(0, 200, 2).astype(dtype)
    b = np.arange(1, 200, 2).astype(dtype)
    out = np.empty(200, dtype)
    assert merge_into(out, a, b, check=True) == (None, None)
    assert out.tobytes() == np.sort(np.concatenate([a, b]), kind="stable").tobytes()
    a[10] = 0
    assert merge_into(out, a, b, check=True) == (9, None)
    assert seen == []


def test_promoted_pair_scans_each_side_before_the_cast(monkeypatch):
    """int64 values past 2**53 that descend become one float64: only the
    per-side scan of the int64 input sees the descent."""
    a = np.array([2**53 + 1, 2**53], np.int64)
    b = np.array([0.0])
    assert first_disorder(a.astype(np.float64)) is None
    seen = _spy(monkeypatch)
    assert merge_into(np.empty(3), a, b, check=True) == (0, None)
    assert seen == [2]
    seen.clear()
    assert merge_into(np.empty(2), a[1:], b, check=True) == (None, None)
    assert seen == [1, 1]


class TestMergeVectorizedScansOnce:
    def test_raises_a_before_b_at_the_first_descent(self):
        for a, b, want in [
            ([0, 3, 1], [5, 4], ("A", 1)),
            ([0, 1], [5, 4], ("B", 0)),
            ([1.0, np.nan, 0.5], [0.25], ("A", 1)),
        ]:
            with pytest.raises(NotSortedError) as exc:
                merge_vectorized(np.array(a), np.array(b))
            assert (exc.value.name, exc.value.index) == want

    def test_bool_keys_are_checked_as_bytes(self):
        a = np.array([1, 2, 1], np.uint8).view(np.bool_)
        b = np.array([0, 1], np.uint8).view(np.bool_)
        ka, _ = merge_keys(a, b)
        assert first_disorder(ka) == 1
        with pytest.raises(NotSortedError) as exc:
            merge_vectorized(a, b)
        assert (exc.value.name, exc.value.index) == ("A", 1)

    def test_one_scan_for_a_same_dtype_pair(self, monkeypatch):
        seen = _spy(monkeypatch)
        a = np.arange(0, 64, 2)
        b = np.arange(1, 64, 2)
        np.testing.assert_array_equal(merge_vectorized(a, b), np.arange(64))
        assert seen == []
