"""In-memory merges and sorts run in-process.

Algorithm 1's workers read shared inputs and write disjoint slices of
one output: threads do that with views, a process pool only by copying.
So every in-memory entry point refuses a backend whose tasks run in
other processes, with one :class:`~repro.errors.InputError` raised by
:class:`repro.execution.Execution` before any batch is dispatched and
before the autotuner could reroute a small call to ``serial``; the
process pool serves the external sort alone.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.backends import Backend, ProcessBackend
from repro.core import (
    cache_efficient_sort,
    kway_merge,
    merge,
    natural_merge_sort,
    parallel_merge,
    parallel_merge_sort,
    segmented_parallel_merge,
)
from repro.core.inplace import merge_inplace_parallel
from repro.core.keyed import merge_by_key, merge_records
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition
from repro.errors import InputError
from repro.execution import autotune, run_chunk_sorts, run_merge_round
from repro.execution.autotune import Autotuner
from repro.resilience import DegradingBackend, ResilientBackend

CUTOVER = 1 << 12
#: Total elements per call: one size below the serial cutover, one above.
SIZES = {"below": 64, "above": 4 * CUTOVER}

BACKENDS = {
    "name": lambda: "processes",
    "instance": lambda: ProcessBackend(max_workers=2),
    "resilient": lambda: ResilientBackend(ProcessBackend(max_workers=2)),
    "degrading": lambda: DegradingBackend(["processes", "threads", "serial"]),
}


def _halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    g = np.random.default_rng(n)
    return (np.sort(g.integers(0, 1000, n // 2)),
            np.sort(g.integers(0, 1000, n - n // 2)))


def _records(keys: np.ndarray) -> np.ndarray:
    rec = np.empty(len(keys), dtype=[("key", np.int64), ("idx", np.int64)])
    rec["key"] = keys
    rec["idx"] = np.arange(len(keys))
    return rec


def _unsorted(n: int) -> np.ndarray:
    return np.random.default_rng(n + 1).integers(0, 1000, n)


ENTRY_POINTS = {
    "parallel_merge": lambda n, be: parallel_merge(*_halves(n), 2, backend=be),
    "merge": lambda n, be: merge(*_halves(n), p=2, backend=be),
    "merge_partition": lambda n, be: merge_partition(
        *_halves(n), partition_merge_path(*_halves(n), 2), backend=be),
    "segmented_parallel_merge": lambda n, be: segmented_parallel_merge(
        *_halves(n), 2, L=16, backend=be),
    "parallel_merge_sort": lambda n, be: parallel_merge_sort(
        _unsorted(n), 2, backend=be),
    "cache_efficient_sort": lambda n, be: cache_efficient_sort(
        _unsorted(n), 2, 48, backend=be),
    "natural_merge_sort": lambda n, be: natural_merge_sort(
        _unsorted(n), 2, backend=be),
    "kway_merge": lambda n, be: kway_merge(
        [*_halves(n), _halves(n)[0]], 2, backend=be),
    "merge_by_key": lambda n, be: merge_by_key(
        *_halves(n), *(np.arange(len(h)) for h in _halves(n)), p=2,
        backend=be),
    "merge_records": lambda n, be: merge_records(
        *(_records(h) for h in _halves(n)), "key", p=2, backend=be),
    "run_merge_round": lambda n, be: run_merge_round(
        list(_halves(n)), 2, backend=be),
    "run_chunk_sorts": lambda n, be: run_chunk_sorts(
        _unsorted(n), 2, backend=be),
}


@pytest.fixture
def no_dispatch(monkeypatch, tmp_path):
    """Autotuning on with a pinned cutover (so a small pooled call would
    be rerouted to ``serial``), and every dispatch or shared-memory
    segment recorded."""
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=CUTOVER)
    monkeypatch.setattr(autotune, "_GLOBAL", tuner)
    seen: list[str] = []

    def run_batch(self, batch):
        seen.append(f"{type(self).__name__} ran {batch.label}")
        raise AssertionError("a refused call dispatched a batch")

    def segment(*args, **kwargs):
        seen.append("shared-memory segment")
        raise AssertionError("an in-memory call created shared memory")

    monkeypatch.setattr(Backend, "run_batch", run_batch)
    monkeypatch.setattr(shared_memory, "SharedMemory", segment)
    return seen


def _refused(call, backend) -> None:
    try:
        with pytest.raises(InputError, match="run in-process"):
            call(backend)
    finally:
        if isinstance(backend, Backend):
            backend.close()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_in_memory_entry_point_refuses_the_process_pool(
    no_dispatch, entry, backend, size
):
    _refused(lambda be: ENTRY_POINTS[entry](SIZES[size], be),
             BACKENDS[backend]())
    assert no_dispatch == []


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_inplace_merge_refuses_before_it_rotates(no_dispatch, backend, size):
    a, b = _halves(SIZES[size])
    arr = np.concatenate([a, b])
    before = arr.copy()
    _refused(lambda be: merge_inplace_parallel(arr, len(a), 2, backend=be),
             BACKENDS[backend]())
    assert no_dispatch == []
    assert np.array_equal(arr, before)

