"""Input validation helpers shared by all merge kernels.

Validation is factored out so every public entry point applies identical
rules (sortedness, dtype compatibility, bounds) and produces identical
error types, and so the hot kernels can skip re-validation when called
internally with ``check=False``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import DTypeMismatchError, InputError, NotSortedError

__all__ = [
    "as_array",
    "check_sorted",
    "check_mergeable",
    "check_positive",
    "check_range",
    "first_disorder",
    "first_disorder_split",
    "descends_at",
]


def as_array(x: Sequence | np.ndarray, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a 1-D numpy array without copying when possible.

    Raises :class:`~repro.errors.InputError` for inputs that are not
    one-dimensional or that coerce to object arrays of uncomparable
    elements.
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


#: Dtype kinds whose order check adds NumPy's NaN-last rule.  Other
#: kinds take ``>`` alone, as ``check_sorted`` always has, also where a
#: value is unequal to itself (NaT, a float NaN in an object array).
_NAN_KINDS = "fc"


def first_disorder(arr: np.ndarray) -> int | None:
    """Return the first index ``i`` where ``arr[i+1]`` sorts before
    ``arr[i]`` in NumPy's order, else ``None``.

    That order puts NaN last, so for float arrays a NaN followed by a
    non-NaN is a descent too (``[1.0, nan, 0.5]`` is out of order at 1);
    every comparison with NaN is false, and ``>`` alone misses it.
    Integer and bool arrays take the single comparison pass.
    """
    return first_disorder_split(arr, len(arr))[0]


def first_disorder_split(
    arr: np.ndarray, split: int
) -> tuple[int | None, int | None]:
    """:func:`first_disorder` of ``arr[:split]`` and of ``arr[split:]``
    in one comparison pass over ``arr``, as ``(i, j)``.

    The pair across ``split`` is not a descent of either side, so it is
    excluded.  A descent of the first side wins: ``j`` is then ``None``
    whether or not the second side has one, as in a scan of the first
    side and then, only if it is sorted, of the second.  ``arr`` is the
    concatenation of two merge inputs, so both sides are read in the
    one pass while the copy that built it still has them in cache.
    ``argmax`` finds the first descent without building an index array,
    and a sorted input (no descent) reads as index 0 with ``gt[0]``
    false.
    """
    if len(arr) < 2:
        return None, None
    gt = arr[:-1] > arr[1:]
    if arr.dtype.kind in _NAN_KINDS:
        nan = np.isnan(arr)
        gt |= nan[:-1] & ~nan[1:]
    if 0 < split < len(arr):
        gt[split - 1] = False
    k = int(gt.argmax())
    if not gt[k]:
        return None, None
    return (k, None) if k < split else (None, k - split)


def descends_at(arr: np.ndarray, i: int) -> bool:
    """Whether ``arr[i + 1]`` sorts before ``arr[i]``: the one-pair form
    of :func:`first_disorder`, in the same order (NaN last for the same
    dtypes), without building arrays."""
    x, y = arr[i], arr[i + 1]
    if x > y:
        return True
    return arr.dtype.kind in _NAN_KINDS and bool(x != x and y == y)


def check_sorted(arr: np.ndarray, name: str = "array") -> None:
    """Raise :class:`~repro.errors.NotSortedError` unless ``arr`` is
    non-decreasing."""
    idx = first_disorder(arr)
    if idx is not None:
        raise NotSortedError(name, idx)


def check_mergeable(a: np.ndarray, b: np.ndarray, check_order: bool = True) -> None:
    """Validate that ``a`` and ``b`` can be merged.

    Checks dimensionality (both 1-D), dtype comparability (their
    promoted dtype must not be ``object`` unless both already are, and
    two integer dtypes must promote to an integer dtype: ``uint64`` with
    a signed integer does not) and, when ``check_order`` is true,
    sortedness of both inputs.
    """
    if a.ndim != 1 or b.ndim != 1:
        raise InputError(
            f"merge inputs must be 1-D, got shapes {a.shape} and {b.shape}"
        )
    _check_dtypes(a.dtype, b.dtype)
    if check_order:
        check_sorted(a, "A")
        check_sorted(b, "B")


@functools.lru_cache(maxsize=256)
def _check_dtypes(a: np.dtype, b: np.dtype) -> None:
    """Raise :class:`~repro.errors.DTypeMismatchError` unless dtypes
    ``a`` and ``b`` can be merged.

    The verdict depends on the dtype pair alone, so a pass is cached per
    pair; a mismatch raises and is never cached, so it raises again on
    every call.
    """
    try:
        promoted = np.promote_types(a, b)
    except TypeError as exc:
        raise DTypeMismatchError(
            f"cannot merge dtypes {a} and {b}: {exc}"
        ) from exc
    # numpy "promotes" numeric+string to string by casting numbers to
    # text, which silently changes comparison semantics — reject it.
    a_text = np.issubdtype(a, np.str_) or np.issubdtype(a, np.bytes_)
    b_text = np.issubdtype(b, np.str_) or np.issubdtype(b, np.bytes_)
    if a_text != b_text:
        raise DTypeMismatchError(
            f"cannot merge text dtype with numeric dtype "
            f"({a} vs {b}; promotion to {promoted} would "
            "compare numbers as text)"
        )
    # uint64 with a signed integer promotes to float64, which rounds
    # integers past 2**53 — reject it rather than lose values.
    if a.kind in "iu" and b.kind in "iu" and promoted.kind not in "iu":
        raise DTypeMismatchError(
            f"cannot merge integer dtypes {a} and {b}: they promote to "
            f"{promoted}, which cannot hold every value of both"
        )


def check_positive(value: int, name: str) -> None:
    """Raise :class:`~repro.errors.InputError` unless ``value`` >= 1."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")


def check_range(value: int, name: str, lo: int, hi: int) -> None:
    """Raise :class:`~repro.errors.InputError` unless ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise InputError(f"{name} must be in [{lo}, {hi}], got {value}")
