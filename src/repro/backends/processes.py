"""Process-pool backend, for the external sort.

Tasks must be picklable (module-level functions /
``functools.partial``).  The one caller is
:func:`repro.external.external_sort_file`, whose tasks carry file paths
and offsets, so only a few integers cross the pipe and each worker
reads and writes memory-mapped files.  In-memory merges and sorts
refuse this backend (:class:`repro.execution.Execution`): their workers
read shared inputs and write disjoint slices of one output, which
threads do with views and processes could only do by copying.

The pool is a ``concurrent.futures.ProcessPoolExecutor`` rather than a
``multiprocessing.Pool`` deliberately: when a worker process dies
(SIGKILL, OOM, segfault in an extension), ``Pool.map`` blocks forever on
the lost result, whereas the executor's management thread detects the
death and fails every in-flight future with one shared
``BrokenProcessPool``.  :meth:`ProcessBackend.run_tasks` reports that
as a :class:`~repro.errors.BatchError` whose ``worker-death`` failures
name the affected task indices.  A done callback discards the broken
pool as soon as its futures fail, so the next batch (e.g. a retry by
:class:`repro.resilience.ResilientBackend`) gets a fresh one.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..validation import check_positive
from .base import Backend, TaskResult, failed_future

__all__ = ["ProcessBackend"]


def _timed_call(index: int, task: Callable[[], Any]) -> TaskResult:
    """Worker wrapper (runs in the child)."""
    t0 = time.perf_counter()
    value = task()
    return TaskResult(index, value, time.perf_counter() - t0)


class ProcessBackend(Backend):
    """Fork/join over a ``ProcessPoolExecutor`` (fork context)."""

    name = "processes"
    out_of_process = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None:
            check_positive(max_workers, "max_workers")
        self._max_workers = max_workers or mp.cpu_count()
        self._pool: ProcessPoolExecutor | None = None
        # Pool creation/teardown is locked: a broken pool is discarded
        # from the pool's own management thread (a done callback) while
        # callers may be submitting, and concurrent callers must not
        # race a broken-pool replacement.
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=mp.get_context("fork"),
                )
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next batch rebuilds a healthy one."""
        with self._lock:
            if self._pool is not pool:
                return  # already replaced
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def _discard_if_broken(self, pool: ProcessPoolExecutor, fut: Future) -> None:
        if not fut.cancelled() and isinstance(fut.exception(), BrokenProcessPool):
            self._discard_pool(pool)

    def start_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[Future]:
        tasks = list(tasks)
        pool = self._ensure_pool()
        futures: list[Future] = []
        for i, task in enumerate(tasks):
            try:
                fut = pool.submit(_timed_call, i, task)
            except (BrokenProcessPool, RuntimeError) as exc:
                # The pool broke before this task reached it (a worker
                # died, even an idle one): it and the rest of the batch
                # fail with one shared error, which counts as one death.
                self._discard_pool(pool)
                lost = BrokenProcessPool(f"pool broken before dispatch: {exc!r}")
                lost.__cause__ = exc
                return futures + [failed_future(lost) for _ in tasks[i:]]
            # Registered before the caller sees the future, so the pool
            # is discarded before anyone can react to its failure.
            fut.add_done_callback(
                functools.partial(self._discard_if_broken, pool)
            )
            futures.append(fut)
        return futures

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
