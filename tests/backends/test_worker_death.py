"""Worker-death handling on the process backend.

Before the executor rework, a SIGKILLed worker left ``Pool.map``
blocked forever on the lost result.  These tests pin the new contract:
a dead worker surfaces promptly as a ``worker-death``
:class:`~repro.errors.BatchError`, the broken pool is replaced so the
next batch works, and the resilience layer recovers the merge
transparently.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.backends.processes import ProcessBackend
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition
from repro.execution.arena import RoundArena
from repro.errors import BatchError
from repro.resilience import (
    FaultInjector,
    FaultyBackend,
    ResilientBackend,
    RetryPolicy,
)


def _suicide() -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return 0  # pragma: no cover - never reached


def _ok() -> int:
    return 7


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(0xDEAD)
    a = np.sort(rng.integers(0, 10_000, 500))
    b = np.sort(rng.integers(0, 10_000, 500))
    return a, b


class TestBareBackend:
    def test_killed_worker_raises_batch_error_promptly(self):
        backend = ProcessBackend(max_workers=2)
        try:
            t0 = time.monotonic()
            with pytest.raises(BatchError) as exc_info:
                backend.run_tasks([_suicide, _ok, _ok])
            wall = time.monotonic() - t0
            assert wall < 30.0, "death detection must not deadlock"
            kinds = {f.kind for f in exc_info.value.failures}
            assert "worker-death" in kinds
            assert 0 in exc_info.value.task_indices
        finally:
            backend.close()

    def test_pool_is_replaced_after_death(self):
        backend = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(BatchError):
                backend.run_tasks([_suicide])
            # A fresh pool serves the next batch.
            results = backend.run_tasks([_ok, _ok])
            assert [r.value for r in results] == [7, 7]
        finally:
            backend.close()

    def test_exception_and_death_both_reported(self):
        backend = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(BatchError) as exc_info:
                backend.run_tasks([_suicide, _ok])
            assert all(
                f.kind in ("worker-death", "exception")
                for f in exc_info.value.failures
            )
        finally:
            backend.close()


class TestResilientRecovery:
    def test_scripted_death_recovered_by_retry(self, arrays):
        a, b = arrays
        partition = partition_merge_path(a, b, 4, check=False)
        injector = FaultInjector(seed=1, scripted={(0, 0): "death"})
        rb = ResilientBackend(
            FaultyBackend(ProcessBackend(max_workers=2), injector),
            RetryPolicy(max_retries=2, timeout_s=15.0, backoff_base_s=0.01,
                        speculate=False),
        )
        try:
            merged = merge_partition(a, b, partition, backend=rb)
            assert np.array_equal(
                merged, np.sort(np.concatenate([a, b]), kind="stable")
            )
            assert rb.last_batch.worker_deaths >= 1
            assert rb.last_batch.retries >= 1
        finally:
            rb.close()

    def test_merge_partition_shared_still_works_plain(self, arrays):
        a, b = arrays
        partition = partition_merge_path(a, b, 3, check=False)
        backend = ProcessBackend(max_workers=2)
        try:
            merged = merge_partition(a, b, partition, backend=backend)
        finally:
            backend.close()
        assert np.array_equal(
            merged, np.sort(np.concatenate([a, b]), kind="stable")
        )

    def test_arena_tasks_are_idempotent(self, arrays):
        a, b = arrays
        partition = partition_merge_path(a, b, 3, check=False)
        backend = ProcessBackend(max_workers=2)
        try:
            with RoundArena([(a, b, partition)]) as arena:
                tasks = arena.tasks()
                backend.run_tasks(tasks)
                backend.run_tasks(tasks)  # run every segment twice
                (merged,) = arena.results()
            assert np.array_equal(
                merged, np.sort(np.concatenate([a, b]), kind="stable")
            )
        finally:
            backend.close()
