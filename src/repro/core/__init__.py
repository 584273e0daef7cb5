"""Core merge-path algorithms: the paper's primary contribution.

Modules
-------
merge_matrix
    Explicit (O(|A|·|B|)) reference model of the binary Merge Matrix and
    Merge Path of Section II.  Used by tests and teaching examples, never
    by the production kernels.
merge_path
    The diagonal binary search of Theorem 14 and partitioning into
    per-processor segments — scalar and vectorized forms.
sequential
    In-segment merge kernels: two-pointer, galloping, and the
    vectorized production kernel (copy both runs into the output, then
    one linear-time stable-sort merge).
parallel_merge
    Algorithm 1 (Parallel Merge) over pluggable execution backends.
segmented_merge
    Algorithm 2 (Segmented Parallel Merge, cache-efficient).
merge_sort
    Parallel merge sort of Section III.
cache_sort
    Cache-efficient parallel sort of Section IV.C.
selection
    k-th smallest of the union of sorted arrays (used by baselines and
    the k-way extension).
kway
    k-way generalization of merge-path partitioning (extension).
"""

from .merge_matrix import MergeMatrix, build_merge_path, path_to_merged
from .merge_path import (
    diagonal_bounds,
    diagonal_intersection,
    diagonal_intersections_vectorized,
    partition_merge_path,
    partition_at_positions,
)
from .sequential import (
    merge_two_pointer,
    merge_galloping,
    merge_vectorized,
    merge_into,
    KERNELS,
)
from .parallel_merge import parallel_merge, merge
from .segmented_merge import segmented_parallel_merge, plan_segments
from .merge_sort import parallel_merge_sort, merge_sort_rounds
from .cache_sort import cache_efficient_sort
from .selection import kth_of_union, kth_of_union_many, topk_of_union
from .kway import kway_partition, kway_merge
from .keyed import argmerge, merge_by_key, take_merged, merge_records
from .streaming import streaming_merge
from .inplace import merge_inplace, merge_inplace_parallel
from .natural_sort import find_natural_runs, natural_merge_sort
from .setops import (
    set_union,
    set_intersection,
    set_difference,
    set_symmetric_difference,
)

__all__ = [
    "MergeMatrix",
    "build_merge_path",
    "path_to_merged",
    "diagonal_bounds",
    "diagonal_intersection",
    "diagonal_intersections_vectorized",
    "partition_merge_path",
    "partition_at_positions",
    "merge_two_pointer",
    "merge_galloping",
    "merge_vectorized",
    "merge_into",
    "KERNELS",
    "parallel_merge",
    "merge",
    "segmented_parallel_merge",
    "plan_segments",
    "parallel_merge_sort",
    "merge_sort_rounds",
    "cache_efficient_sort",
    "kth_of_union",
    "kth_of_union_many",
    "topk_of_union",
    "kway_partition",
    "kway_merge",
    "argmerge",
    "merge_by_key",
    "take_merged",
    "merge_records",
    "streaming_merge",
    "set_union",
    "set_intersection",
    "set_difference",
    "set_symmetric_difference",
    "merge_inplace",
    "merge_inplace_parallel",
    "find_natural_runs",
    "natural_merge_sort",
]
