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
death and fails every in-flight future with ``BrokenProcessPool``.
:meth:`ProcessBackend.run_tasks` converts that into a
:class:`~repro.errors.BatchError` whose ``worker-death`` failures name
the affected task indices, then discards the broken pool so the next
batch (e.g. a retry by :class:`repro.resilience.ResilientBackend`) gets
a fresh one.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import BatchError, TaskFailure
from ..validation import check_positive
from .base import Backend, TaskResult

__all__ = ["ProcessBackend"]


def _timed_call(index: int, task: Callable[[], Any]) -> tuple[int, Any, float]:
    """Worker wrapper for the generic path (runs in the child)."""
    import time

    t0 = time.perf_counter()
    value = task()
    return index, value, time.perf_counter() - t0


class ProcessBackend(Backend):
    """Fork/join over a ``ProcessPoolExecutor`` (fork context)."""

    name = "processes"
    out_of_process = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None:
            check_positive(max_workers, "max_workers")
        self._max_workers = max_workers or mp.cpu_count()
        self._pool: ProcessPoolExecutor | None = None
        # Pool creation/teardown is locked: resilience supervisors may
        # dispatch single-task batches from several threads at once, and
        # two of them must not race a broken-pool replacement.
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
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        tasks = list(tasks)
        pool = self._ensure_pool()
        futures: dict[int, Any] = {}
        failures: list[TaskFailure] = []
        broken = False
        for i, task in enumerate(tasks):
            try:
                futures[i] = pool.submit(_timed_call, i, task)
            except (BrokenProcessPool, RuntimeError) as exc:
                # The pool died while we were still submitting (a worker
                # of an earlier future was killed); everything not yet
                # submitted is a worker-death casualty too.
                broken = True
                failures.append(TaskFailure(
                    index=i, kind="worker-death",
                    message=f"pool broken before dispatch: {exc!r}", error=exc,
                ))
        results: list[TaskResult] = []
        for i, fut in futures.items():
            try:
                idx, value, elapsed = fut.result()
            except BrokenProcessPool as exc:
                broken = True
                failures.append(TaskFailure(
                    index=i, kind="worker-death",
                    message="worker process died before returning a result "
                    f"({exc!r})", error=exc,
                ))
            except Exception as exc:  # noqa: BLE001 - collected
                failures.append(TaskFailure(
                    index=i, kind="exception", message=repr(exc), error=exc,
                ))
            else:
                results.append(TaskResult(index=idx, value=value, elapsed_s=elapsed))
        if broken:
            self._discard_pool(pool)
        if failures:
            raise BatchError(failures, total=len(tasks))
        return results

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
