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
from .sequential import merge_runs_into

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
    """
    check_positive(p, "p")
    arrays = [as_array(arr, f"arrays[{t}]") for t, arr in enumerate(arrays)]
    if check:
        for t, arr in enumerate(arrays):
            check_sorted(arr, f"arrays[{t}]")
    if not arrays:
        return np.empty(0)
    if len(arrays) == 1:
        return arrays[0].copy()

    total = sum(len(arr) for arr in arrays)
    dtype = arrays[0].dtype
    for arr in arrays[1:]:
        dtype = np.promote_types(dtype, arr.dtype)
    out = np.empty(total, dtype=dtype)

    cuts = kway_partition(arrays, p, check=False)
    offsets = [sum(cuts[k]) for k in range(p + 1)]

    def make_task(k: int):
        def task() -> None:
            merge_runs_into(out[offsets[k]:offsets[k + 1]], [
                arr[cuts[k][t]:cuts[k + 1][t]] for t, arr in enumerate(arrays)
            ])

        return task

    tasks = [make_task(k) for k in range(p) if offsets[k + 1] > offsets[k]]
    with Execution(backend, p) as ex:
        ex.run(TaskBatch(tasks, label="kway.merge",
                         meta={"slabs": len(tasks)}))
    return out
