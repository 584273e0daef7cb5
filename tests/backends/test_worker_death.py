"""Worker-death handling on the process backend.

Before the executor rework, a SIGKILLed worker left ``Pool.map``
blocked forever on the lost result.  These tests pin the new contract:
a dead worker surfaces promptly as a ``worker-death``
:class:`~repro.errors.BatchError`, the broken pool is replaced so the
next batch works, and the resilience layer recovers the external sort
(the pool's one caller) transparently.  In-memory merges never reach
the pool: they are refused before any task runs.
"""

import functools
import os
import signal
import time

import numpy as np
import pytest

from repro.backends.processes import ProcessBackend
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition
from repro.errors import BatchError, InputError
from repro.external import external_sort_file
from repro.obs import MetricsRegistry
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


def _nap(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


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
    def test_scripted_death_recovered_by_retry(self, tmp_path):
        """The external sort, the pool's one caller, survives a killed
        worker: the task is retried and the sorted file is exact."""
        x = np.random.default_rng(0xDEAD).integers(0, 10_000, 1000)
        in_path = str(tmp_path / "in.npy")
        np.save(in_path, x)
        injector = FaultInjector(seed=1, scripted={(0, 0): "death"})
        rb = ResilientBackend(
            FaultyBackend(ProcessBackend(max_workers=2), injector),
            RetryPolicy(max_retries=2, timeout_s=15.0, backoff_base_s=0.01,
                        speculate=False),
        )
        reg = MetricsRegistry()
        try:
            final, _ = external_sort_file(
                in_path, memory_elements=250, directory=str(tmp_path),
                backend=rb, workers=2, metrics=reg,
            )
        finally:
            rb.close()
        assert np.array_equal(np.load(final.path), np.sort(x, kind="stable"))
        assert reg.value("resilience.worker_deaths") >= 1
        assert reg.value("resilience.retries") >= 1

    def test_one_kill_counts_one_death(self):
        """Every task in flight on the pool is lost with the one worker
        that died: each records a ``worker-death`` failure and is
        retried, but the batch counts one death."""
        injector = FaultInjector(seed=1, scripted={(0, 0): "death"})
        rb = ResilientBackend(
            FaultyBackend(ProcessBackend(max_workers=2), injector),
            RetryPolicy(max_retries=2, timeout_s=15.0, backoff_base_s=0.01,
                        speculate=False),
        )
        rb.metrics = reg = MetricsRegistry()
        try:
            res = rb.run_tasks(
                [functools.partial(_nap, 0.2) for _ in range(4)]
            )
        finally:
            rb.close()
        assert [r.value for r in res] == [0.2] * 4
        lost = [
            t for t in rb.last_batch.tasks
            if any(f.kind == "worker-death" for f in t.failures)
        ]
        assert len(lost) >= 2  # the casualties outnumber the deaths
        assert all(t.retries >= 1 for t in lost)
        assert rb.last_batch.worker_deaths == 1
        assert reg.value("resilience.worker_deaths") == 1

    def test_supervised_merge_is_refused_before_any_task(self, arrays):
        """A supervising wrapper over the pool is refused up front: no
        task is injected, attempted or retried."""
        a, b = arrays
        partition = partition_merge_path(a, b, 3, check=False)
        injector = FaultInjector(seed=1, scripted={(0, 0): "death"})
        rb = ResilientBackend(
            FaultyBackend(ProcessBackend(max_workers=2), injector),
            RetryPolicy(max_retries=2, backoff_base_s=0.01, speculate=False),
        )
        try:
            with pytest.raises(InputError, match="run in-process"):
                merge_partition(a, b, partition, backend=rb)
        finally:
            rb.close()
        assert rb.dispatches == 0
        assert injector.injected == 0
