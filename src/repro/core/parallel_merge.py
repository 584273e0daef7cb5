"""Algorithm 1 — Parallel Merge.

Direct implementation of the paper's Algorithm 1:

1. Processor ``k`` (0-based) owns output positions
   ``[k·N/p, (k+1)·N/p)`` where ``N = |A| + |B|``.
2. It binary-searches the merge path's intersection with its starting
   diagonal (Theorem 14) — done once, up front, for all processors by
   :func:`repro.core.merge_path.partition_merge_path` (the searches are
   independent; the vectorized form runs them in lockstep exactly as p
   hardware threads would).
3. It merges its sub-arrays sequentially into its disjoint output slice.
4. Implicit barrier: :meth:`Backend.run_tasks` returns only when every
   segment is done.

No locks, no atomics, no inter-processor communication — cores share
only read-only inputs, matching the Remark after Algorithm 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import Backend
from ..execution.context import Execution
from ..execution.engine import run_segments
from ..types import MergeStats, Partition
from ..validation import as_array, check_mergeable, check_positive
from .merge_path import partition_merge_path
from .sequential import result_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import ExecutionTelemetry, RetryPolicy

__all__ = ["parallel_merge", "merge", "merge_partition"]


def merge_partition(
    a: np.ndarray,
    b: np.ndarray,
    partition: Partition,
    *,
    backend: Backend,
    stats: MergeStats | None = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Execute the merge phase of Algorithm 1 over a ready partition.

    Each non-empty segment becomes one task of a single batch on
    ``backend`` (:func:`repro.execution.engine.run_segments`); tasks
    write disjoint slices of the output array.  In-process tasks capture
    only views — no element data is copied; on a process pool the
    arrays are staged once in shared memory.

    ``metrics`` publishes the Theorem 14 load-balance gauges
    (``balance.work_spread`` from the partition,
    ``balance.task_time_imbalance`` from measured per-task times),
    counts dispatched segments and the call's dispatches.
    """
    out = np.empty(partition.total_length, dtype=result_dtype(a, b))
    with Execution(backend, stats=stats, trace=trace, metrics=metrics) as ex:
        run_segments(ex, [(out, a, b, partition)], label="merge.partition")
    return out


def parallel_merge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    p: int,
    *,
    backend: Backend | str = "threads",
    check: bool = True,
    oversubscribe: int = 1,
    stats: MergeStats | None = None,
    resilience: "RetryPolicy | bool | None" = None,
    telemetry: "ExecutionTelemetry | None" = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Merge two sorted arrays with ``p`` processors (Algorithm 1).

    Parameters
    ----------
    a, b:
        Sorted input arrays (non-decreasing).
    p:
        Number of parallel workers.
    backend:
        A :class:`~repro.backends.Backend` instance or registry name
        (``"serial"``, ``"threads"``, ``"processes"``, ``"simulated"``).
        Pooled names resolve to process-wide shared instances whose
        worker pools persist across calls (:mod:`repro.execution.pool`),
        and — on untraced calls — may be rerouted by the per-host
        autotuner (e.g. ``"threads"`` → ``"serial"`` below the measured
        fork/join crossover; disable with ``REPRO_AUTOTUNE=0``).
        Explicit instances are used verbatim and never rerouted.
    check:
        Validate input sortedness (O(N) vectorized scan).
    oversubscribe:
        Segments per worker (default 1, the paper's static schedule).
        Values > 1 cut ``p * oversubscribe`` segments so a pooled
        backend can balance dynamically — useful when per-segment cost
        varies (e.g. NUMA effects or a noisy neighbour on one core);
        Corollary 7 makes it unnecessary for uniform cost.
    stats:
        Optional operation-count sink (partition probes + merge ops).
    resilience:
        Enable the fault-tolerant execution layer
        (:mod:`repro.resilience`): ``True`` wraps the backend in a
        :class:`~repro.resilience.ResilientBackend` with the default
        :class:`~repro.resilience.RetryPolicy`; pass a policy instance
        to customize retries/timeouts/speculation.  Safe because the
        merge tasks are idempotent and write disjoint slices
        (Theorem 14).
    telemetry:
        Optional :class:`~repro.resilience.ExecutionTelemetry` sink; on
        return it holds the retry/timeout/speculation record of every
        supervised batch this call ran (requires ``resilience`` or an
        already-resilient ``backend``).
    trace:
        Optional :class:`~repro.obs.Tracer`; records ``partition.search``,
        ``segment.merge`` and ``backend.task`` spans for this call
        (export with :func:`repro.obs.write_chrome_trace`).  ``None``
        (the default) allocates no span objects at all.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; receives this
        call's kernel operation counts (``merge.*``), segment counts and
        the Theorem 14 load-balance gauges (``balance.*``), plus
        resilience counters when a supervised backend is in play.

    Returns
    -------
    numpy.ndarray
        The stable merge of ``a`` and ``b`` (ties: ``a`` first), length
        ``len(a) + len(b)``.
    """
    check_positive(p, "p")
    check_positive(oversubscribe, "oversubscribe")
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)

    with Execution(
        backend, p, op="merge", n=len(a) + len(b), resilience=resilience,
        telemetry=telemetry, trace=trace, metrics=metrics, stats=stats,
    ) as ex:
        partition = partition_merge_path(
            a, b, p * oversubscribe, check=False, stats=ex.stats, tracer=trace
        )
        out = np.empty(partition.total_length, dtype=result_dtype(a, b))
        run_segments(ex, [(out, a, b, partition)], label="merge.partition")
    return out


def merge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    p: int = 1,
    backend: Backend | str = "auto",
    check: bool = True,
) -> np.ndarray:
    """Friendly top-level merge.

    ``merge(a, b)`` is a stable sequential merge; pass ``p`` and a
    backend to parallelize.  This is the function the quickstart example
    showcases.

    Defaults are adaptive: ``backend="auto"`` resolves to ``"serial"``
    for ``p == 1`` and ``"threads"`` otherwise, then the autotuner
    (:mod:`repro.execution.autotune`) sends calls below the measured
    per-host serial crossover to ``"serial"``.  Pass a backend instance
    (or set ``REPRO_AUTOTUNE=0``) to pin the configuration.  Every
    segment runs the one linear kernel,
    :func:`~repro.core.sequential.merge_into`.
    """
    if backend == "auto":
        backend = "serial" if p == 1 else "threads"
    return parallel_merge(a, b, p, backend=backend, check=check)
