"""Thread-pool backend.

CPython threads share the address space, so numpy input arrays and the
output array are accessed with zero copies — the same memory model the
paper's OpenMP implementation uses.  The GIL serializes *Python*
bytecode, but the vectorized merge kernel spends its time inside numpy C
code (the copies into the output slice and the stable sort that merges
them) which releases the GIL on numeric dtypes, so large segments
genuinely overlap on multi-core hosts.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..validation import check_positive
from .base import Backend

__all__ = ["ThreadBackend"]


class ThreadBackend(Backend):
    """Fork/join over a persistent, lazily created ``ThreadPoolExecutor``.

    The pool is created on the first batch and reused for every
    subsequent one — pool construction is *not* part of any dispatch.
    The batched execution engine (:mod:`repro.execution`) keeps one
    instance per ``(name, max_workers)`` alive across calls, so entry
    points invoked with a string backend name no longer pay
    per-call pool setup/teardown.
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None:
            check_positive(max_workers, "max_workers")
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def start_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[Future]:
        pool = self._ensure_pool()
        return [pool.submit(self._timed, i, task) for i, task in enumerate(tasks)]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
