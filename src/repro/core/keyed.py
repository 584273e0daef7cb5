"""Key/value and permutation-producing merges (library extensions).

GPU descendants of Merge Path ship ``merge_by_key`` (Thrust, moderngpu):
merge two key arrays and apply the same permutation to payload arrays.
The enabling primitive is :func:`argmerge`, which returns the *gather
indices* of the merge instead of the merged values — the merge path
itself, materialized as a permutation.  Both are embarrassingly
partitionable with the standard diagonal search, so the parallel forms
reuse :func:`repro.core.merge_path.partition_merge_path` unchanged.

Conventions match the rest of the package: stable, ``A`` before equal
``B``; indices returned by :func:`argmerge` address the virtual
concatenation ``A ++ B`` (``idx < len(a)`` selects ``a[idx]``, else
``b[idx - len(a)]``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import Backend, TaskBatch
from ..errors import InputError
from ..execution.context import Execution
from ..validation import as_array, check_mergeable, check_positive
from .merge_path import partition_merge_path

__all__ = ["argmerge", "merge_by_key", "take_merged", "merge_records"]


def argmerge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    check: bool = True,
) -> np.ndarray:
    """Gather indices of the stable merge of ``a`` and ``b``.

    ``argmerge(a, b)[k]`` is the position in the concatenation
    ``A ++ B`` of the element that lands at merged position ``k``::

        idx = argmerge(a, b)
        merged = np.concatenate([a, b])[idx]      # == merge(a, b)

    O(N log N) comparisons, fully vectorized; the permutation is exactly
    the merge path read as a move sequence (down = an A index, right =
    a B index).
    """
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)
    n = len(a) + len(b)
    idx = np.empty(n, dtype=np.intp)
    if len(a) == 0:
        idx[:] = np.arange(len(b))
        return idx
    if len(b) == 0:
        idx[:] = np.arange(len(a))
        return idx
    pos_a = np.arange(len(a), dtype=np.intp) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(len(b), dtype=np.intp) + np.searchsorted(a, b, side="right")
    idx[pos_a] = np.arange(len(a), dtype=np.intp)
    idx[pos_b] = np.arange(len(a), len(a) + len(b), dtype=np.intp)
    return idx


def take_merged(
    a_values: np.ndarray, b_values: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Apply an :func:`argmerge` permutation to a payload array pair."""
    a_values = as_array(a_values, "a_values")
    b_values = as_array(b_values, "b_values")
    both = np.concatenate([a_values, b_values])
    if len(indices) != len(both):
        raise InputError(
            f"permutation length {len(indices)} != payload total {len(both)}"
        )
    return both[indices]


def merge_by_key(
    a_keys: Sequence | np.ndarray,
    b_keys: Sequence | np.ndarray,
    a_values: Sequence | np.ndarray,
    b_values: Sequence | np.ndarray,
    *,
    p: int = 1,
    backend: Backend | str = "serial",
    check: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two (key, value) sequences by key, stably and in parallel.

    Returns ``(merged_keys, merged_values)``.  Keys must be sorted;
    values ride along.  With ``p > 1`` the key arrays are partitioned by
    merge path and each segment's permutation is computed and applied
    independently into disjoint output slices — the exact structure of
    Algorithm 1 with a payload gather appended.

    Raises
    ------
    InputError
        If a key array and its value array differ in length.
    """
    check_positive(p, "p")
    a_keys = as_array(a_keys, "a_keys")
    b_keys = as_array(b_keys, "b_keys")
    a_values = as_array(a_values, "a_values")
    b_values = as_array(b_values, "b_values")
    if len(a_keys) != len(a_values):
        raise InputError(
            f"a_keys ({len(a_keys)}) and a_values ({len(a_values)}) differ"
        )
    if len(b_keys) != len(b_values):
        raise InputError(
            f"b_keys ({len(b_keys)}) and b_values ({len(b_values)}) differ"
        )
    if check:
        check_mergeable(a_keys, b_keys)

    n = len(a_keys) + len(b_keys)
    out_keys = np.empty(n, dtype=np.promote_types(a_keys.dtype, b_keys.dtype))
    out_vals = np.empty(n, dtype=np.promote_types(a_values.dtype, b_values.dtype))

    partition = partition_merge_path(a_keys, b_keys, p, check=False)

    def make_task(seg):
        def task() -> None:
            ka = a_keys[seg.a_start : seg.a_end]
            kb = b_keys[seg.b_start : seg.b_end]
            idx = argmerge(ka, kb, check=False)
            merged_k = np.concatenate([ka, kb])[idx]
            merged_v = np.concatenate(
                [
                    a_values[seg.a_start : seg.a_end],
                    b_values[seg.b_start : seg.b_end],
                ]
            )[idx]
            out_keys[seg.out_start : seg.out_end] = merged_k
            out_vals[seg.out_start : seg.out_end] = merged_v

        return task

    tasks = [make_task(seg) for seg in partition.segments if seg.length > 0]
    with Execution(backend, p) as ex:
        ex.run(TaskBatch(tasks, label="keyed.merge"))
    return out_keys, out_vals


def merge_records(
    a: np.ndarray,
    b: np.ndarray,
    key: str,
    *,
    p: int = 1,
    backend: Backend | str = "serial",
    check: bool = True,
) -> np.ndarray:
    """Merge two structured (record) arrays sorted by one field.

    The database-friendly form of :func:`merge_by_key`: ``a`` and ``b``
    are numpy structured arrays whose ``key`` field is sorted; whole
    records ride along.  Stable: on equal keys, ``a``'s records precede
    ``b``'s, and records within one source keep their order.

    Raises
    ------
    InputError
        If either array is not structured, the dtypes differ, or the
        key field is missing.
    """
    check_positive(p, "p")
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.names is None or b.dtype.names is None:
        raise InputError("merge_records requires structured (record) arrays")
    if a.dtype != b.dtype:
        raise InputError(
            f"record dtypes must match exactly, got {a.dtype} vs {b.dtype}"
        )
    if key not in a.dtype.names:
        raise InputError(
            f"key field {key!r} not in record fields {a.dtype.names}"
        )
    a_keys = a[key]
    b_keys = b[key]
    if check:
        check_mergeable(a_keys, b_keys)

    out = np.empty(len(a) + len(b), dtype=a.dtype)
    partition = partition_merge_path(a_keys, b_keys, p, check=False)

    def make_task(seg):
        def task() -> None:
            ka = a_keys[seg.a_start : seg.a_end]
            kb = b_keys[seg.b_start : seg.b_end]
            idx = argmerge(ka, kb, check=False)
            both = np.concatenate(
                [a[seg.a_start : seg.a_end], b[seg.b_start : seg.b_end]]
            )
            out[seg.out_start : seg.out_end] = both[idx]

        return task

    tasks = [make_task(seg) for seg in partition.segments if seg.length > 0]
    with Execution(backend, p) as ex:
        ex.run(TaskBatch(tasks, label="keyed.merge"))
    return out
