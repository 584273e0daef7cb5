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
from ..execution.context import Execution, runs_inline
from ..execution.engine import merge_whole, run_segments
from ..types import Partition
from ..validation import as_array, check_mergeable, check_positive
from .merge_path import partition_merge_path
from .sequential import merge_keys, result_dtype, sorted_as

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import RetryPolicy

__all__ = ["parallel_merge", "merge", "merge_partition"]


def merge_partition(
    a: np.ndarray,
    b: np.ndarray,
    partition: Partition,
    *,
    backend: Backend,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Execute the merge phase of Algorithm 1 over a ready partition.

    Each non-empty segment becomes one task of a single batch on
    ``backend`` (:func:`repro.execution.engine.run_segments`); tasks
    write disjoint slices of the output array and capture only views —
    no element data is copied.  The work runs in-process: a process
    pool is refused with :class:`~repro.errors.InputError`.

    ``metrics`` publishes the Theorem 14 load-balance gauges
    (``balance.work_spread`` from the partition,
    ``balance.task_time_imbalance`` from measured per-task times),
    counts the plan's ``merge.*`` work and the call's dispatches.

    The kernel sorts two bool arrays by their bytes, so for bools pass
    :func:`~repro.core.sequential.merge_keys` of the inputs and a
    partition cut on those keys, not on the raw bools (which cuts by
    truth value), and view the result back with
    :func:`~repro.core.sequential.sorted_as`.
    """
    out = np.empty(partition.total_length, dtype=result_dtype(a, b))
    with Execution(backend, trace=trace, metrics=metrics) as ex:
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
    resilience: "RetryPolicy | bool | None" = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Merge two sorted arrays with ``p`` processors (Algorithm 1).

    Parameters
    ----------
    a, b:
        Sorted input arrays (non-decreasing).  Two bool arrays are
        merged as their bytes, the order ``np.sort`` gives them.
    p:
        Number of parallel workers.
    backend:
        A :class:`~repro.backends.Backend` instance or registry name
        (``"serial"``, ``"threads"``, ``"simulated"``).  The merge runs
        in-process: ``"processes"``, a process pool, any wrapper over
        one or a degradation chain with a process level raises
        :class:`~repro.errors.InputError` before any task runs (the
        process pool serves only the external sort).  Pooled names
        resolve to process-wide shared instances whose worker pools
        persist across calls (:mod:`repro.execution.pool`), and — on
        untraced calls — may be rerouted by the per-host autotuner
        (``"threads"`` → ``"serial"`` below the measured fork/join
        crossover; disable with ``REPRO_AUTOTUNE=0``).
        A rerouted call without ``resilience`` runs inline
        (:func:`repro.execution.context.runs_inline`) and merges as one
        segment (:func:`repro.execution.engine.merge_whole`): no
        diagonal search, one kernel call in a one-task batch on the
        serial backend.  Explicit instances and ``"serial"`` are used
        verbatim and never rerouted, so they keep ``p`` segments.
    check:
        Validate input sortedness.  Dimensions and dtypes are checked
        up front, the order inside the segment tasks: each kernel call
        scans its sub-blocks' input slices while they are cache-hot and
        each task checks the pair across its right cut
        (:func:`repro.execution.engine.merge_segment`), so no serial
        O(N) scan runs before the tasks.  An unsorted input raises the
        :class:`~repro.errors.NotSortedError` of a scan of ``a``, then
        ``b`` (first descent of ``a``, else of ``b``) after the barrier,
        in O(N) work.  ``False`` skips the order check: an unsorted
        input then comes back as some permutation of its elements.
    oversubscribe:
        Segments per worker (default 1, the paper's static schedule).
        Values > 1 cut ``p * oversubscribe`` segments so a pooled
        backend can balance dynamically — useful when per-segment cost
        varies (e.g. NUMA effects or a noisy neighbour on one core);
        Corollary 7 makes it unnecessary for uniform cost.
    resilience:
        Enable the fault-tolerant execution layer
        (:mod:`repro.resilience`): ``True`` wraps the backend in a
        :class:`~repro.resilience.ResilientBackend` with the default
        :class:`~repro.resilience.RetryPolicy`; pass a policy instance
        to customize retries/timeouts/speculation.  Safe because the
        merge tasks are idempotent and write disjoint slices
        (Theorem 14).
    trace:
        Optional :class:`~repro.obs.Tracer`; records ``partition.search``,
        ``segment.merge`` and ``backend.task`` spans for this call
        (export with :func:`repro.obs.write_chrome_trace`).  ``None``
        (the default) allocates no span objects at all.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; receives this
        call's operation counts (``merge.*``, read from the partition;
        a rerouted call publishes its one-segment plan), segment counts
        and the Theorem 14 load-balance gauges (``balance.*``), plus,
        for the call's duration, the ``resilience.*`` counters of a
        supervised backend that has no registry of its own.

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
    check_mergeable(a, b, check_order=False)
    n = len(a) + len(b)
    if runs_inline(backend, n, resilience=resilience, trace=trace):
        return merge_whole(a, b, p, check=check, metrics=metrics)

    ka, kb = merge_keys(a, b)
    with Execution(
        backend, p, op="merge", n=n, resilience=resilience, trace=trace,
        metrics=metrics,
    ) as ex:
        partition = partition_merge_path(
            ka, kb, p * oversubscribe, check=False, tracer=trace
        )
        out = np.empty(partition.total_length, dtype=result_dtype(ka, kb))
        run_segments(ex, [(out, ka, kb, partition)], label="merge.partition",
                     check=check)
    return out if ka is a else sorted_as(out, a)


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

    Defaults are adaptive.  With ``backend="auto"`` and ``p == 1`` the
    merge is one segment at every size
    (:func:`repro.execution.engine.merge_whole`: no diagonal search,
    one kernel call on the serial backend).  With ``p > 1`` ``"auto"``
    means ``"threads"``, which the autotuner
    (:mod:`repro.execution.autotune`) reroutes to that same one-segment
    path below the measured per-host serial crossover.  An explicit
    ``backend="serial"`` is never rerouted and keeps Algorithm 1's
    partition-and-dispatch path (the REM6PCT single-thread reference).
    Pass a backend instance (or set ``REPRO_AUTOTUNE=0``) to pin the
    configuration.  Every segment runs the one linear kernel,
    :func:`~repro.core.sequential.merge_into`.
    """
    if backend == "auto" and p == 1:
        a = as_array(a, "A")
        b = as_array(b, "B")
        check_mergeable(a, b, check_order=False)
        return merge_whole(a, b, check=check)
    if backend == "auto":
        backend = "threads"
    return parallel_merge(a, b, p, backend=backend, check=check)
