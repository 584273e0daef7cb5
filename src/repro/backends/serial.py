"""Serial backend: run every task in the calling thread, in order.

This is both the correctness baseline and the reference for the
single-thread-overhead experiment (REM6PCT): running Algorithm 1 with
``p = 1`` on this backend measures exactly the partitioning + dispatch
overhead the paper's Section VI remark quantifies at ~6%.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..errors import BatchError
from .base import Backend, TaskResult, collect, task_failure

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Execute tasks sequentially in submission order."""

    name = "serial"

    def __init__(self, max_workers: int | None = None) -> None:
        # max_workers accepted for interface symmetry with the pooled
        # backends; a serial executor has exactly one worker regardless.
        pass

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        if len(tasks) != 1:
            return collect(tasks, self._timed)
        # The one-task batch of every merge below the serial cutover:
        # the barrier of ``collect`` with nothing to gather.
        try:
            return [self._timed(0, tasks[0])]
        except Exception as exc:  # noqa: BLE001 - raised as a BatchError
            raise BatchError([task_failure(0, exc)], total=1) from exc
