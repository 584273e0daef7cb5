"""Parallel merge sort (Section III).

The classic structure: split the input into ``p`` chunks, sort each
chunk independently (one per processor), then run ``log2 p`` rounds of
pairwise merges.  Early rounds have more array pairs than processors
and parallelize trivially across pairs; once pairs become scarce the
processors *within* each pair cooperate using Algorithm 1's merge-path
partitioning — this is precisely the regime the paper says motivates
parallel merge ("this is no longer the case in later rounds").

``merge_sort_rounds`` exposes the round-by-round schedule (which merge
ran with how many cooperating processors) for the SORT experiment.

Execution is batched (:mod:`repro.execution`): all segment tasks of all
pairs in a round ship as **one** :class:`~repro.backends.TaskBatch`, so
a sort call costs one backend dispatch per round — ``O(log N)`` total —
instead of one per pair (``O(p · log N)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import Backend
from ..execution.context import Execution
from ..execution.engine import run_chunk_sorts, run_merge_round
from ..obs.tracer import NULL_SPAN
from ..types import MergeStats
from ..validation import as_array, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import ExecutionTelemetry, RetryPolicy

__all__ = ["parallel_merge_sort", "merge_sort_rounds", "RoundInfo"]


@dataclass(frozen=True, slots=True)
class RoundInfo:
    """Schedule record for one round of the sort.

    ``pairs`` is the number of array pairs merged this round and
    ``procs_per_pair`` how many processors cooperated inside each merge.
    ``dispatches`` is the number of backend fork/join dispatches the
    round costs under the batched execution engine — always 1: every
    segment task of every pair ships in one
    :class:`~repro.backends.TaskBatch`, and an odd run carried to the
    next round costs nothing (it is *not* re-dispatched as a degenerate
    single-task batch).
    """

    round_index: int
    pairs: int
    procs_per_pair: int
    run_length: int
    dispatches: int = 1


def merge_sort_rounds(n: int, p: int) -> list[RoundInfo]:
    """Predict the round schedule for sorting ``n`` elements with ``p`` cores.

    Round 0 is the chunk-local sequential sort; each later round halves
    the number of runs.  Processors per pair grows as pairs shrink,
    keeping all ``p`` cores busy every round (the paper's point: total
    computation per round is constant, so every round must parallelize).
    """
    check_positive(n, "n")
    check_positive(p, "p")
    rounds: list[RoundInfo] = []
    runs = min(p, n)
    run_length = (n + runs - 1) // runs
    r = 1
    while runs > 1:
        pairs = runs // 2
        procs = max(1, p // max(1, pairs))
        rounds.append(
            RoundInfo(round_index=r, pairs=pairs, procs_per_pair=procs,
                      run_length=run_length)
        )
        runs = (runs + 1) // 2
        run_length *= 2
        r += 1
    return rounds


def parallel_merge_sort(
    x: Sequence | np.ndarray,
    p: int,
    *,
    backend: Backend | str = "threads",
    stats: MergeStats | None = None,
    resilience: "RetryPolicy | bool | None" = None,
    telemetry: "ExecutionTelemetry | None" = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Sort ``x`` with ``p`` processors using merge-path merges.

    Parameters
    ----------
    x:
        Input array (any order, any comparable dtype).
    p:
        Processor count; also the initial chunk count.
    backend:
        Execution backend (instance or name) shared across rounds.
    stats:
        Optional operation-count sink covering the merge rounds.
    resilience:
        Enable fault-tolerant execution for every round (chunk sorts
        and merges): ``True`` for the default
        :class:`~repro.resilience.RetryPolicy`, or a policy instance.
    telemetry:
        Optional :class:`~repro.resilience.ExecutionTelemetry` sink
        collecting the supervision record of all rounds.
    trace:
        Optional :class:`~repro.obs.Tracer`; records a ``sort.round``
        span per round (round 0 = chunk sorts) enclosing the rounds'
        ``partition.search`` / ``segment.merge`` / ``backend.task``
        spans.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving kernel
        counts (``merge.*``), ``sort.rounds`` and load-balance gauges.

    Returns
    -------
    numpy.ndarray
        Sorted copy of ``x`` (the input is never mutated).
    """
    check_positive(p, "p")
    arr = as_array(x, "x").copy()
    n = len(arr)
    if n <= 1:
        return arr

    with Execution(
        backend, p, op="sort", n=n, resilience=resilience,
        telemetry=telemetry, trace=trace, metrics=metrics, stats=stats,
    ) as ex:
        # --- Round 0: independent chunk sorts, one batched dispatch.
        chunks = min(p, n)

        span0 = (
            trace.span("sort.round", round=0, pairs=0, chunks=chunks,
                       run_length=(n + chunks - 1) // chunks)
            if trace is not None
            else NULL_SPAN
        )
        with span0:
            runs = run_chunk_sorts(
                arr, chunks, backend=ex.backend, trace=trace, metrics=metrics,
            )

        # --- Merge rounds: every pair of a round rides one batch;
        # an odd run out carries to the next round dispatch-free.
        round_index = 1
        while len(runs) > 1:
            procs_per_pair = max(1, p // (len(runs) // 2))
            round_span = (
                trace.span("sort.round", round=round_index,
                           pairs=len(runs) // 2,
                           procs_per_pair=procs_per_pair)
                if trace is not None
                else NULL_SPAN
            )
            with round_span:
                runs = run_merge_round(
                    runs, procs_per_pair, backend=ex.backend, stats=ex.stats,
                    trace=trace, metrics=metrics,
                    round_index=round_index,
                )
            if metrics is not None:
                metrics.counter("sort.rounds").inc()
            round_index += 1
    return runs[0]

