"""The execution engine: Algorithm 1's merge phase as one batch.

Every operation of the paper has one shape: cut merge paths at
diagonals, then merge each disjoint output slice independently, with a
single barrier at the end (Theorem 14).  :func:`run_segments` is the
only code that turns partitioned merges — ``(out, a, b, partition)``
jobs — into a :class:`~repro.backends.TaskBatch`.  It

* builds one task per non-empty segment of every job — a closure with
  a ``segment.merge`` span and a private ``MergeStats`` sink, or, when
  tasks must be picklable (:func:`~repro.backends.tasks_must_pickle`),
  a picklable offset job over a :class:`~repro.execution.arena.RoundArena`
  that stages all jobs in two shared-memory blocks;
* publishes ``merge.segments`` and ``balance.work_spread``, runs the
  batch through the call's :class:`~repro.execution.context.Execution`
  and folds the per-task stats.

Its callers differ only in how they plan: ``merge_partition`` (one job),
a sort round (:func:`run_merge_round`: every pair of the round, so a
sort costs one dispatch per round, ``O(log N)`` per call), and an SPM
block (one job per cache block).  :func:`run_chunk_sorts` is round 0 of
the sort: every chunk's local sort as one batch.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..backends import Backend, TaskBatch, tasks_must_pickle
from ..obs.tracer import NULL_SPAN
from ..types import MergeStats, Partition
from ..core.merge_path import partition_merge_path
from ..core.sequential import merge_into, result_dtype
from .arena import ChunkSortArena, RoundArena
from .context import Execution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = ["run_segments", "run_merge_round", "run_chunk_sorts"]

#: One partitioned merge: ``partition`` cuts the merge of ``a`` and
#: ``b`` into segments that fill ``out``.
Job = tuple[np.ndarray, np.ndarray, np.ndarray, Partition]


def run_segments(
    ex: Execution,
    jobs: Sequence[Job],
    *,
    label: str,
    meta: dict[str, Any] | None = None,
) -> None:
    """Merge every segment of every job in **one** batched dispatch.

    ``meta`` is recorded on the batch (and on each ``segment.merge``
    span).  Every task runs :func:`~repro.core.sequential.merge_into`;
    staged jobs run it in worker processes, which feed neither the call's ``MergeStats`` nor its tracer.
    """
    meta = dict(meta or ())
    per_task_stats: list[MergeStats] = []
    staged = tasks_must_pickle(ex.backend)
    with (
        RoundArena([(a, b, part) for _, a, b, part in jobs]) if staged
        else nullcontext()
    ) as arena:
        tasks = (
            arena.tasks() if staged
            else _closures(ex, jobs, meta, per_task_stats)
        )
        meta["segments"] = len(tasks)
        if ex.metrics is not None:
            ex.metrics.counter("merge.segments").inc(len(tasks))
            ex.metrics.gauge("balance.work_spread").set(
                max(part.max_imbalance for *_, part in jobs)
            )
        ex.run(TaskBatch(tasks, label=label, meta=meta))  # the barrier
        if staged:
            arena.results([out for out, *_ in jobs])
    for st in per_task_stats:
        ex.stats.merge(st)


def _closures(
    ex: Execution,
    jobs: Sequence[Job],
    meta: dict[str, Any],
    per_task_stats: list[MergeStats],
) -> list:
    """One in-process task per non-empty segment, each with its own
    ``segment.merge`` span and (when counting) ``MergeStats`` sink."""
    trace = ex.trace

    def make_task(out, a, b, seg, worker, seg_stats):
        def task() -> None:
            span = (
                trace.span(
                    "segment.merge",
                    index=seg.index, worker=worker,
                    a_start=seg.a_start, a_end=seg.a_end,
                    b_start=seg.b_start, b_end=seg.b_end,
                    out_start=seg.out_start, out_end=seg.out_end,
                    length=seg.length, **meta,
                )
                if trace is not None
                else NULL_SPAN
            )
            with span:
                merge_into(
                    out[seg.out_start:seg.out_end],
                    a[seg.a_start:seg.a_end],
                    b[seg.b_start:seg.b_end],
                    stats=seg_stats,
                )
                if seg_stats is not None:
                    span.set(comparisons=seg_stats.comparisons,
                             moves=seg_stats.moves)

        return task

    tasks = []
    for job, (out, a, b, part) in enumerate(jobs):
        for seg in part.segments:
            if seg.length == 0:
                continue
            seg_stats = None
            if ex.stats is not None:
                seg_stats = MergeStats()
                per_task_stats.append(seg_stats)
            tasks.append(make_task(out, a, b, seg,
                                   job * len(part.segments) + seg.index,
                                   seg_stats))
    return tasks


def run_merge_round(
    runs: Sequence[np.ndarray],
    procs_per_pair: int,
    *,
    backend: Backend,
    stats: MergeStats | None = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    round_index: int = 1,
) -> list[np.ndarray]:
    """Merge adjacent pairs of ``runs`` in **one** batched dispatch.

    Partitions every pair with Algorithm 1 (``procs_per_pair`` segments
    each) and returns the next round's runs.  An odd trailing run is
    carried over untouched — it costs no task and no dispatch.
    """
    if len(runs) < 2:
        return list(runs)
    with Execution(backend, stats=stats, trace=trace, metrics=metrics) as ex:
        jobs = []
        for i in range(0, len(runs) - 1, 2):
            a, b = runs[i], runs[i + 1]
            part = partition_merge_path(
                a, b, procs_per_pair, check=False, stats=ex.stats, tracer=trace
            )
            out = np.empty(part.total_length, dtype=result_dtype(a, b))
            jobs.append((out, a, b, part))
        run_segments(ex, jobs, label="sort.round", meta={
            "round": round_index, "pairs": len(jobs),
            "procs_per_pair": procs_per_pair,
        })
    merged = [out for out, *_ in jobs]
    if len(runs) % 2:
        merged.append(runs[-1])
    return merged


def run_chunk_sorts(
    arr: np.ndarray,
    chunks: int,
    *,
    backend: Backend,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list[np.ndarray]:
    """Round 0 of the sort: every chunk's local sort as one batch.

    Each chunk gets a stable numpy sort.  When tasks must be picklable,
    the chunks are staged through a :class:`ChunkSortArena`.
    """
    n = len(arr)
    chunks = min(chunks, n)
    bounds = [(k * n) // chunks for k in range(chunks + 1)]

    with Execution(backend, trace=trace, metrics=metrics) as ex:
        if tasks_must_pickle(ex.backend):
            with ChunkSortArena(arr, bounds) as arena:
                ex.run(TaskBatch(arena.tasks(), label="sort.chunks",
                                 meta={"round": 0, "chunks": chunks}))
                return arena.results()

        views = [arr[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

        def make_task(idx: int, chunk: np.ndarray):
            def task() -> np.ndarray:
                span = (
                    trace.span("sort.chunk", index=idx, worker=idx,
                               length=len(chunk))
                    if trace is not None
                    else NULL_SPAN
                )
                with span:
                    return np.sort(chunk, kind="mergesort")

            return task

        results = ex.run(TaskBatch(
            [make_task(i, c) for i, c in enumerate(views)],
            label="sort.chunks", meta={"round": 0, "chunks": len(views)},
        ))
    return [r.value for r in sorted(results, key=lambda r: r.index)]
