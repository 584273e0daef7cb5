"""Serial backend: run every task in the calling thread, in order.

This is both the correctness baseline and the reference for the
single-thread-overhead experiment (REM6PCT): running Algorithm 1 with
``p = 1`` on this backend measures exactly the partitioning + dispatch
overhead the paper's Section VI remark quantifies at ~6%.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .base import Backend, TaskResult, collect

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Execute tasks sequentially in submission order."""

    name = "serial"

    def __init__(self, max_workers: int | None = None) -> None:
        # max_workers accepted for interface symmetry with the pooled
        # backends; a serial executor has exactly one worker regardless.
        pass

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        return collect(tasks, self._timed)
