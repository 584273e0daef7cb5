"""k-way merge via merge-path-style partitioning (extension).

The paper merges *two* arrays; GPU descendants of Merge Path
(moderngpu, CUB) generalize the partition-then-merge structure to many
input lists.  This module provides the CPU analogue as the package's
"future work" extension:

* :func:`kway_partition` cuts the union of ``T`` sorted arrays at
  equispaced output ranks using
  :func:`repro.core.selection.kth_of_union_many`, producing per-array
  split indices such that every processor owns a contiguous, disjoint
  slab of each input and a contiguous output range — the exact k-way
  analogue of Theorem 5's sub-array pairs.
* :func:`kway_merge` merges each slab set with one stable sort of the
  slabs laid back to back (:func:`repro.core.sequential.merge_runs_into`),
  in parallel across slabs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import Backend, TaskBatch
from ..execution.context import Execution
from ..validation import as_array, check_positive, check_sorted
from .selection import kth_of_union_many
from .sequential import merge_runs_into, sort_keys, sorted_as

__all__ = ["kway_partition", "kway_merge"]


def kway_partition(
    arrays: Sequence[np.ndarray],
    p: int,
    *,
    check: bool = True,
) -> list[list[int]]:
    """Split the union of sorted arrays into ``p`` balanced output ranges.

    Returns ``cuts``: ``p + 1`` rows of per-array split indices.
    ``cuts[k][t] .. cuts[k+1][t]`` is array ``t``'s contribution to
    output range ``k``.  Row 0 is all zeros; row ``p`` is the array
    lengths.  Output range sizes differ by at most one element.  With
    ``check=False`` only per-array ``searchsorted`` touches the inputs,
    so memory maps are never read whole (the external sort's block
    planner cuts disk runs this way).
    """
    check_positive(p, "p")
    arrays = [as_array(arr, f"arrays[{t}]") for t, arr in enumerate(arrays)]
    if check:
        for t, arr in enumerate(arrays):
            check_sorted(arr, f"arrays[{t}]")
    total = sum(len(arr) for arr in arrays)
    cuts: list[list[int]] = [[0] * len(arrays)]
    for k in range(1, p):
        rank = (k * total) // p
        if rank <= 0:
            cuts.append([0] * len(arrays))
        elif rank >= total:
            cuts.append([len(arr) for arr in arrays])
        else:
            _, splits = kth_of_union_many(arrays, rank, check=False)
            cuts.append(splits)
    cuts.append([len(arr) for arr in arrays])
    # Ranks are non-decreasing, so per-array splits must be too; the
    # tie-distribution rule in kth_of_union_many preserves this.
    for t in range(len(arrays)):
        col = [row[t] for row in cuts]
        assert all(x <= y for x, y in zip(col, col[1:])), "non-monotone cuts"
    return cuts


def kway_merge(
    arrays: Sequence[np.ndarray],
    p: int = 1,
    *,
    backend: Backend | str = "serial",
    check: bool = True,
) -> np.ndarray:
    """Stable merge of ``T`` sorted arrays using ``p`` processors.

    Ties are emitted in array order (array 0 first), consistent with the
    two-array A-before-B rule.  Each processor merges its slab set with
    :func:`~repro.core.sequential.merge_runs_into`.

    Arrays that are all bool are cut, checked and merged as their bytes
    (:func:`~repro.core.sequential.sort_keys`), the order ``np.sort``
    gives them, and the merge is viewed back as bool
    (:func:`~repro.core.sequential.sorted_as`).  The output dtype is
    NumPy's promotion of the input dtypes, in native byte order, as
    ``np.sort(np.concatenate(arrays), kind="stable")`` returns it and
    :func:`~repro.core.parallel_merge.parallel_merge` merges two arrays.
    """
    check_positive(p, "p")
    arrays = [as_array(arr, f"arrays[{t}]") for t, arr in enumerate(arrays)]
    keys = arrays
    if arrays and all(arr.dtype == np.bool_ for arr in arrays):
        keys = [sort_keys(arr) for arr in arrays]
    if check:
        for t, key in enumerate(keys):
            check_sorted(key, f"arrays[{t}]")

    with Execution(backend, p) as ex:
        if not arrays:
            return np.empty(0)
        if len(arrays) == 1:
            return np.concatenate(arrays)  # a copy, in native byte order

        out = np.empty(sum(len(key) for key in keys),
                       dtype=np.result_type(*(key.dtype for key in keys)))
        cuts = kway_partition(keys, p, check=False)
        offsets = [sum(cuts[k]) for k in range(p + 1)]

        def make_task(k: int):
            def task() -> None:
                merge_runs_into(out[offsets[k]:offsets[k + 1]], [
                    key[cuts[k][t]:cuts[k + 1][t]]
                    for t, key in enumerate(keys)
                ])

            return task

        tasks = [make_task(k) for k in range(p) if offsets[k + 1] > offsets[k]]
        ex.run(TaskBatch(tasks, label="kway.merge",
                         meta={"slabs": len(tasks)}))
    return out if keys is arrays else sorted_as(out, arrays[0])
