"""repro — a full reproduction of "Merge Path: Parallel Merging Made
Simple" (Odeh, Green, Mwassi, Shmueli, Birk; IPPS 2012).

Quick start::

    import numpy as np
    from repro import merge, parallel_merge, parallel_merge_sort

    a = np.array([1, 3, 5, 7])
    b = np.array([2, 3, 6, 8])
    merge(a, b)                       # sequential stable merge
    parallel_merge(a, b, p=4)         # Algorithm 1 on 4 workers
    parallel_merge_sort(np.array([5, 2, 9, 1]), p=4)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — merge path partitioning, Algorithms 1 & 2,
  parallel / cache-efficient sorts, k-way extension.
* :mod:`repro.pram` — CREW PRAM simulator (the paper's machine model).
* :mod:`repro.cache` — set-associative cache hierarchy simulator.
* :mod:`repro.machine` — hardware specs and the analytic timing model.
* :mod:`repro.backends` — serial / thread / process / simulated
  executors.
* :mod:`repro.resilience` — fault injection, per-task retry/timeout,
  straggler speculation, graceful backend degradation.
* :mod:`repro.obs` — unified tracing (Chrome-trace export) and metrics
  registry; ``trace=`` / ``metrics=`` on every parallel entry point.
* :mod:`repro.baselines` — related-work algorithms (Section V).
* :mod:`repro.workloads` — seeded generators and adversarial inputs.
* :mod:`repro.analysis` — speedup laws, complexity fits, tables.
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from ._version import __version__, PAPER
from .errors import (
    ReproError,
    InputError,
    NotSortedError,
    PartitionError,
    SimulationError,
    MemoryConflictError,
    BackendError,
    BackendUnavailableError,
    BatchError,
    TaskFailure,
)
from .types import Partition, Segment, PathPoint, MergeStats, ExperimentResult
from .core import (
    merge,
    parallel_merge,
    segmented_parallel_merge,
    parallel_merge_sort,
    cache_efficient_sort,
    partition_merge_path,
    diagonal_intersection,
    merge_two_pointer,
    merge_galloping,
    merge_vectorized,
    kway_merge,
    kth_of_union,
    argmerge,
    merge_by_key,
    merge_records,
    streaming_merge,
    set_union,
    set_intersection,
    set_difference,
    set_symmetric_difference,
    merge_inplace,
    merge_inplace_parallel,
)
from .verify import verify_merged, verify_partition, verify_sorted
from .backends import get_backend, available_backends
from .obs import (
    Tracer,
    MetricsRegistry,
    LoadBalanceReport,
    load_balance_from_trace,
    write_chrome_trace,
    flame_summary,
)
from .resilience import (
    RetryPolicy,
    ResilientBackend,
    FaultInjector,
    FaultyBackend,
    DegradingBackend,
    DegradationWarning,
    probe_backend,
)

__all__ = [
    "__version__",
    "PAPER",
    "ReproError",
    "InputError",
    "NotSortedError",
    "PartitionError",
    "SimulationError",
    "MemoryConflictError",
    "BackendError",
    "BackendUnavailableError",
    "BatchError",
    "TaskFailure",
    "Partition",
    "Segment",
    "PathPoint",
    "MergeStats",
    "ExperimentResult",
    "merge",
    "parallel_merge",
    "segmented_parallel_merge",
    "parallel_merge_sort",
    "cache_efficient_sort",
    "partition_merge_path",
    "diagonal_intersection",
    "merge_two_pointer",
    "merge_galloping",
    "merge_vectorized",
    "kway_merge",
    "kth_of_union",
    "argmerge",
    "merge_by_key",
    "merge_records",
    "streaming_merge",
    "set_union",
    "set_intersection",
    "set_difference",
    "set_symmetric_difference",
    "merge_inplace",
    "merge_inplace_parallel",
    "verify_merged",
    "verify_partition",
    "verify_sorted",
    "get_backend",
    "available_backends",
    "Tracer",
    "MetricsRegistry",
    "LoadBalanceReport",
    "load_balance_from_trace",
    "write_chrome_trace",
    "flame_summary",
    "RetryPolicy",
    "ResilientBackend",
    "FaultInjector",
    "FaultyBackend",
    "DegradingBackend",
    "DegradationWarning",
    "probe_backend",
]
