"""Tests for the execution backends."""

import threading
import time

import numpy as np
import pytest

from repro.backends import (
    ProcessBackend,
    SerialBackend,
    SimulatedBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition
from repro.errors import BackendError, InputError


class TestRegistry:
    def test_all_builtin_names(self):
        assert available_backends() == (
            "processes", "serial", "simulated", "threads"
        )

    def test_get_backend_constructs(self):
        be = get_backend("serial")
        assert isinstance(be, SerialBackend)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            get_backend("gpu")

    def test_kwargs_forwarded(self):
        be = get_backend("threads", max_workers=2)
        try:
            assert isinstance(be, ThreadBackend)
        finally:
            be.close()


class TestSerialBackend:
    def test_results_in_order(self):
        be = SerialBackend()
        results = be.run_tasks([lambda i=i: i * 10 for i in range(5)])
        assert [r.value for r in results] == [0, 10, 20, 30, 40]
        assert [r.index for r in results] == list(range(5))

    def test_elapsed_recorded(self):
        be = SerialBackend()
        [r] = be.run_tasks([lambda: time.sleep(0.01)])
        assert r.elapsed_s >= 0.009

    def test_exception_wrapped(self):
        be = SerialBackend()

        def boom():
            raise ValueError("nope")

        with pytest.raises(BackendError, match="task 0"):
            be.run_tasks([boom])

    def test_map(self):
        assert SerialBackend().map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


class TestThreadBackend:
    def test_results_in_submission_order(self):
        with ThreadBackend(max_workers=4) as be:
            def task(i):
                time.sleep(0.02 if i == 0 else 0)
                return i

            results = be.run_tasks([lambda i=i: task(i) for i in range(4)])
            assert [r.value for r in results] == [0, 1, 2, 3]

    def test_actually_concurrent(self):
        with ThreadBackend(max_workers=2) as be:
            barrier = threading.Barrier(2, timeout=5)

            def task():
                barrier.wait()  # deadlocks unless both run concurrently
                return True

            results = be.run_tasks([task, task])
            assert all(r.value for r in results)

    def test_exception_propagates(self):
        with ThreadBackend(max_workers=2) as be:
            def boom():
                raise RuntimeError("x")

            with pytest.raises(BackendError):
                be.run_tasks([boom])

    def test_bad_worker_count(self):
        with pytest.raises(InputError):
            ThreadBackend(max_workers=0)


class TestSimulatedBackend:
    def test_batch_accounting(self):
        be = SimulatedBackend()
        be.run_tasks([lambda: time.sleep(0.01), lambda: None])
        batch = be.last_batch
        assert batch is not None
        assert batch.parallel_time_s == max(batch.task_times_s)
        assert batch.total_work_s == sum(batch.task_times_s)
        assert batch.modeled_speedup >= 1.0

    def test_empty_batch(self):
        be = SimulatedBackend()
        be.run_tasks([])
        assert be.last_batch.parallel_time_s == 0.0
        assert be.last_batch.modeled_speedup == 1.0


class TestProcessBackend:
    """The process pool runs the external sort's file-offset tasks;
    in-memory merges refuse it before any task runs."""

    def test_shared_memory_merge(self, monkeypatch):
        """A merge on the pool is refused instead of being staged in
        shared memory: no segment is created."""
        from multiprocessing import shared_memory

        def segment(*args, **kwargs):
            raise AssertionError("a merge created a shared-memory segment")

        monkeypatch.setattr(shared_memory, "SharedMemory", segment)
        g = np.random.default_rng(1)
        a = np.sort(g.integers(0, 1000, 500)).astype(np.int64)
        b = np.sort(g.integers(0, 1000, 400)).astype(np.int64)
        part = partition_merge_path(a, b, 4)
        be = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(InputError, match="run in-process"):
                merge_partition(a, b, part, backend=be)
        finally:
            be.close()
        assert be.dispatches == 0

    def test_backend_merge_partition(self):
        a = np.arange(0, 100, 2)
        b = np.arange(1, 101, 2)
        part = partition_merge_path(a, b, 3)
        be = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(InputError, match="run in-process"):
                merge_partition(a, b, part, backend=be)
        finally:
            be.close()
        assert be.dispatches == 0

    def test_generic_tasks(self):
        be = ProcessBackend(max_workers=2)
        try:
            results = be.run_tasks([_return_7, _return_7])
        finally:
            be.close()
        assert [r.value for r in results] == [7, 7]

    def test_bad_worker_count(self):
        with pytest.raises(InputError):
            ProcessBackend(max_workers=0)

    def test_via_parallel_merge(self):
        from repro.core.parallel_merge import parallel_merge

        g = np.random.default_rng(2)
        a = np.sort(g.integers(0, 50, 64))
        b = np.sort(g.integers(0, 50, 36))
        with pytest.raises(InputError, match="run in-process"):
            parallel_merge(a, b, 2, backend="processes")

    def test_traced_merge_is_refused(self):
        """A traced call (which builds a cold pool of its own) is refused
        like an untraced one, before any batch opens a span."""
        from repro.core.parallel_merge import parallel_merge
        from repro.obs import Tracer

        a = np.arange(0, 100, 2)
        b = np.arange(1, 101, 2)
        tracer = Tracer()
        with pytest.raises(InputError, match="run in-process"):
            parallel_merge(a, b, 2, backend="processes", trace=tracer)
        assert [s for s in tracer.spans() if s.name == "exec.batch"] == []


def _return_7():
    return 7


def _boom():
    raise RuntimeError("injected")


class TestProcessBackendErrors:
    def test_child_exception_wrapped(self):
        be = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(BackendError):
                be.run_tasks([_return_7, _boom])
        finally:
            be.close()

    def test_pool_reuse_after_close(self):
        be = ProcessBackend(max_workers=1)
        be.run_tasks([_return_7])
        be.close()
        # a closed backend lazily re-creates its pool
        results = be.run_tasks([_return_7])
        assert results[0].value == 7
        be.close()
