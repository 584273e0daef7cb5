"""The execution engine: Algorithm 1's merge phase as one batch.

Every operation of the paper has one shape: cut merge paths at
diagonals, then merge each disjoint output slice independently, with a
single barrier at the end (Theorem 14).  :func:`run_segments` is the
only code that turns partitioned merges — ``(out, a, b, partition)``
jobs — into a :class:`~repro.backends.TaskBatch`.  It

* builds one task per non-empty segment of every job: a closure over
  views of the job's arrays, with a ``segment.merge`` span (every batch
  runs in-process, :class:`~repro.execution.context.Execution`);
* publishes the batch's counts, all read from the plan before any task
  runs: ``merge.segments``, ``balance.work_spread`` and ``merge.*`` (a
  segment's length is its element moves, a segment with both sides
  non-empty costs ``|A| + |B| - 1`` comparisons, the bound
  :func:`~repro.core.sequential.merge_into` meets, and each partition's
  ``search_steps`` are its probes, Theorem 14), so they are the same
  whichever backend runs the tasks;
* runs the batch through the call's
  :class:`~repro.execution.context.Execution`.

Its callers differ only in how they plan: ``merge_partition`` (one job),
a sort round (:func:`run_merge_round`: every pair of the round, so a
sort costs one dispatch per round, ``O(log N)`` per call), and an SPM
block (one job per cache block).  :func:`run_chunk_sorts` is round 0 of
the sort: every chunk's :func:`~repro.core.sequential.sort_chunk` as
one batch.

Below the serial cutover a merge has nothing to split:
:func:`merge_whole` runs the one-segment plan (Theorem 14 with one
segment needs no diagonal search) as one task in one batch on the
shared serial backend, without an :class:`Execution`, and publishes the
same plan and call counts.

Both validate the input inside the tasks when asked (``check``): each
task's kernel scans its segment's slices while they are cache-hot
(:func:`merge_segment`), and after the barrier the first descent any
task found is raised as :class:`~repro.errors.NotSortedError`, ``A``'s
before ``B``'s, so no serial scan of the whole input runs first.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..backends import Backend, TaskBatch, TaskResult
from ..errors import NotSortedError
from ..obs.tracer import NULL_SPAN
from ..types import Partition, Segment
from ..core.merge_path import partition_merge_path
from ..core.sequential import (
    merge_into, merge_into_fresh, merge_keys, result_dtype, sort_chunk,
    sorted_as,
)
from ..validation import descends_at
from .context import Execution, publish_batch, publish_call
from .pool import shared_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = [
    "merge_segment", "merge_whole", "run_segments", "run_merge_round",
    "run_chunk_sorts",
]

#: One partitioned merge: ``partition`` cuts the merge of ``a`` and
#: ``b`` into segments that fill ``out``.
Job = tuple[np.ndarray, np.ndarray, np.ndarray, Partition]


def run_segments(
    ex: Execution,
    jobs: Sequence[Job],
    *,
    label: str,
    meta: dict[str, Any] | None = None,
    check: bool = False,
) -> None:
    """Merge every segment of every job in **one** batched dispatch.

    ``meta`` is recorded on the batch (and on each ``segment.merge``
    span).  Every task runs :func:`merge_segment`.  With ``check`` the
    tasks also validate the input of a single job (its inputs named
    ``A`` and ``B``) and an unsorted one raises
    :class:`~repro.errors.NotSortedError` after the barrier.
    """
    meta = dict(meta or ())
    tasks = _closures(ex.trace, jobs, meta, check)
    meta["segments"] = len(tasks)
    if ex.metrics is not None:
        _publish(ex.metrics, jobs, len(tasks))
    results = ex.run(TaskBatch(tasks, label=label, meta=meta))  # the barrier
    if check:
        _raise_first_descent(results)


def merge_whole(
    a: np.ndarray,
    b: np.ndarray,
    p: int = 1,
    *,
    check: bool = False,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Merge ``a`` and ``b`` as **one** segment: a merge that runs
    inline (:func:`~repro.execution.context.runs_inline`) and
    ``merge(a, b)``.

    The inputs must be validated 1-D arrays of a mergeable dtype pair;
    the merge runs on their :func:`~repro.core.sequential.merge_keys`.
    No :class:`Execution`, no diagonal search, no per-segment closure:
    one :func:`~repro.core.sequential.merge_into_fresh` task in one
    batch on the shared serial backend of a ``p``-worker call (so the
    call still counts one dispatch there and in ``metrics``), which
    validates the input when ``check`` is set.  With ``metrics`` it
    publishes what an :class:`Execution` around the one-segment plan
    would: ``merge.calls`` 1, ``exec.dispatches`` 1, ``merge.segments``
    1, ``merge.moves`` ``n``, ``merge.comparisons`` ``n - 1`` when both
    sides are non-empty, ``merge.search_probes`` 0,
    ``balance.work_spread`` 0.
    """
    ka, kb = merge_keys(a, b)
    la, lb = len(ka), len(kb)
    out = np.empty(la + lb, dtype=result_dtype(ka, kb))
    tasks = ([partial(merge_into_fresh, out, ka, kb, check=check)]
             if la + lb else [])
    if metrics is not None:
        part = Partition(la, lb, (Segment(0, 0, la, 0, lb, 0, la + lb),))
        _publish(metrics, [(out, ka, kb, part)], len(tasks))
    try:
        results = shared_backend("serial", p).run_batch(
            TaskBatch(tasks, "merge.partition")
        )
    finally:
        if metrics is not None:
            publish_call(metrics, "merge", 1)
    if metrics is not None:
        publish_batch(metrics, results)
    if check:
        _raise_first_descent(results)
    return out if ka is a else sorted_as(out, a)


def merge_segment(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    a0: int, a1: int, b0: int, b1: int,
    check: bool = False,
) -> tuple[int | None, int | None]:
    """One segment task: merge ``a[a0:a1]`` and ``b[b0:b1]`` into
    ``out`` (:func:`~repro.core.sequential.merge_into`).

    With ``check`` it returns the first descent of each input the
    segment answers for, as an index into the whole ``a`` or ``b``
    (``None`` where there is none): the kernel scans the segment's own
    slices, and the task adds the one pair of each input that straddles
    its right cut.  Segments tiling a merge path therefore check every
    adjacent pair of both inputs exactly as
    :func:`~repro.validation.check_sorted` does.
    """
    i, j = merge_into(out, a[a0:a1], b[b0:b1], check=check)
    if not check:
        return i, j
    if i is not None:
        i += a0
    elif 0 < a1 < len(a) and descends_at(a, a1 - 1):
        i = a1 - 1
    if j is not None:
        j += b0
    elif 0 < b1 < len(b) and descends_at(b, b1 - 1):
        j = b1 - 1
    return i, j


def _raise_first_descent(results: Sequence[TaskResult]) -> None:
    """Raise the first descent the tasks found, ``A``'s before ``B``'s:
    the error :func:`~repro.validation.check_mergeable` raises."""
    for r in results:
        if r.value != (None, None):
            break
    else:
        return
    for side, name in enumerate("AB"):
        seen = [r.value[side] for r in results if r.value[side] is not None]
        if seen:
            raise NotSortedError(name, min(seen))


def _publish(
    metrics: "MetricsRegistry", jobs: Sequence[Job], tasks: int
) -> None:
    """The batch's counts, all fixed by the plan before any task runs."""
    parts = [part for *_, part in jobs]
    segs = [seg for part in parts for seg in part.segments]
    metrics.counter("merge.segments").inc(tasks)
    metrics.counter("merge.moves").inc(sum(seg.length for seg in segs))
    metrics.counter("merge.comparisons").inc(
        sum(seg.length - 1 for seg in segs if seg.a_len and seg.b_len)
    )
    metrics.counter("merge.search_probes").inc(
        sum(sum(part.search_steps) for part in parts)
    )
    metrics.gauge("balance.work_spread").set(
        max(part.max_imbalance for part in parts)
    )


def _closures(
    trace: "Tracer | None",
    jobs: Sequence[Job],
    meta: dict[str, Any],
    check: bool,
) -> list:
    """One in-process task per non-empty segment, each with its own
    ``segment.merge`` span."""

    def make_task(out, a, b, seg, worker):
        def task() -> tuple[int | None, int | None]:
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
                return merge_segment(
                    out[seg.out_start:seg.out_end], a, b,
                    seg.a_start, seg.a_end, seg.b_start, seg.b_end, check,
                )

        return task

    tasks = []
    for job, (out, a, b, part) in enumerate(jobs):
        for seg in part.segments:
            if seg.length == 0:
                continue
            tasks.append(make_task(out, a, b, seg,
                                   job * len(part.segments) + seg.index))
    return tasks


def run_merge_round(
    runs: Sequence[np.ndarray],
    procs_per_pair: int,
    *,
    backend: Backend,
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
    with Execution(backend, trace=trace, metrics=metrics) as ex:
        jobs = []
        for i in range(0, len(runs) - 1, 2):
            a, b = runs[i], runs[i + 1]
            part = partition_merge_path(
                a, b, procs_per_pair, check=False, tracer=trace
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

    Each chunk is sorted by :func:`~repro.core.sequential.sort_chunk`
    into a fresh array (``arr`` is only read, so a speculative duplicate
    of a task never races on it).
    """
    n = len(arr)
    chunks = min(chunks, n)
    bounds = [(k * n) // chunks for k in range(chunks + 1)]

    with Execution(backend, trace=trace, metrics=metrics) as ex:
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
                    return sort_chunk(chunk)

            return task

        results = ex.run(TaskBatch(
            [make_task(i, c) for i, c in enumerate(views)],
            label="sort.chunks", meta={"round": 0, "chunks": len(views)},
        ))
    return [r.value for r in sorted(results, key=lambda r: r.index)]
