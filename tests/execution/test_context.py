"""The execution contract every parallel entry point shares.

All ten entry points run inside one :class:`repro.execution.Execution`,
so they resolve, trace, count and close the same way.  Each check is
parametrized over every entry point that accepts the parameter it
exercises.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.backends import SerialBackend, ThreadBackend
from repro.core.cache_sort import cache_efficient_sort
from repro.core.inplace import merge_inplace_parallel
from repro.core.keyed import merge_by_key, merge_records
from repro.core.kway import kway_merge
from repro.core.merge_sort import parallel_merge_sort
from repro.core.natural_sort import natural_merge_sort
from repro.core.parallel_merge import parallel_merge
from repro.core.segmented_merge import segmented_parallel_merge
from repro.errors import BackendError
from repro.execution import is_shared, shared_backend
from repro.external.parallel import external_sort_file
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import ResilientBackend, RetryPolicy

_G = np.random.default_rng(2024)
_A = np.sort(_G.integers(0, 1000, 300))
_B = np.sort(_G.integers(0, 1000, 260))
_X = _G.integers(0, 1000, 700)
_RECORDS = np.dtype([("k", np.int64), ("v", np.int64)])


def _records(keys: np.ndarray) -> np.ndarray:
    out = np.empty(len(keys), dtype=_RECORDS)
    out["k"] = keys
    out["v"] = np.arange(len(keys))
    return out


def _extsort(backend, tmp_path, **kw):
    in_path = str(tmp_path / "in.npy")
    np.save(in_path, _X)
    final, _ = external_sort_file(in_path, memory_elements=128,
                                  directory=str(tmp_path), backend=backend,
                                  workers=2, **kw)
    return np.load(final.path)


def _inplace(backend, tmp_path):
    arr = np.concatenate([_A, _B])
    merge_inplace_parallel(arr, len(_A), 2, backend=backend)
    return arr


#: name -> (call(backend, tmp_path, **kw), expected output)
ENTRY_POINTS = {
    "parallel_merge": (
        lambda be, tmp, **kw: parallel_merge(_A, _B, 2, backend=be, **kw),
        np.sort(np.concatenate([_A, _B]), kind="stable")),
    "segmented_parallel_merge": (
        lambda be, tmp, **kw: segmented_parallel_merge(_A, _B, 2, L=64,
                                                       backend=be, **kw),
        np.sort(np.concatenate([_A, _B]), kind="stable")),
    "kway_merge": (
        lambda be, tmp: kway_merge([_A, _B, _A], 2, backend=be),
        np.sort(np.concatenate([_A, _B, _A]), kind="stable")),
    "parallel_merge_sort": (
        lambda be, tmp, **kw: parallel_merge_sort(_X, 2, backend=be, **kw),
        np.sort(_X)),
    "cache_efficient_sort": (
        lambda be, tmp, **kw: cache_efficient_sort(_X, 2, 600, backend=be, **kw),
        np.sort(_X)),
    "natural_merge_sort": (
        lambda be, tmp: natural_merge_sort(_X, 2, backend=be),
        np.sort(_X)),
    "merge_by_key": (
        lambda be, tmp: merge_by_key(_A, _B, _A, _B, p=2, backend=be)[1],
        np.sort(np.concatenate([_A, _B]), kind="stable")),
    "merge_records": (
        lambda be, tmp: merge_records(_records(_A), _records(_B), "k", p=2,
                                      backend=be)["k"],
        np.sort(np.concatenate([_A, _B]), kind="stable")),
    "merge_inplace_parallel": (
        _inplace, np.sort(np.concatenate([_A, _B]), kind="stable")),
    "external_sort_file": (_extsort, np.sort(_X)),
}
TRACED = ["parallel_merge", "segmented_parallel_merge", "parallel_merge_sort",
          "cache_efficient_sort", "external_sort_file"]
METERED = TRACED
RESILIENT = ["parallel_merge", "parallel_merge_sort", "external_sort_file"]


class _Spy(SerialBackend):
    """Serial backend that records whether anyone closed it."""

    def __init__(self) -> None:
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


class _Failing(_Spy):
    def run_tasks(self, tasks):
        raise BackendError("injected backend failure")


def _chain(backend):
    while backend is not None:
        yield backend
        backend = getattr(backend, "inner", None)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_string_backend_reuses_the_open_shared_pool(name, tmp_path,
                                                    monkeypatch):
    call, expected = ENTRY_POINTS[name]
    pool = shared_backend("threads", 2)
    assert is_shared(pool)
    closed = []
    monkeypatch.setattr(pool, "close", lambda: closed.append(pool))
    before = pool.dispatches
    np.testing.assert_array_equal(call("threads", tmp_path), expected)
    assert pool.dispatches > before  # the call ran on the shared pool
    assert not closed and is_shared(pool)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_explicit_backend_is_neither_closed_nor_rerouted(name, tmp_path):
    call, expected = ENTRY_POINTS[name]
    be = _Spy()
    np.testing.assert_array_equal(call(be, tmp_path), expected)
    assert be.dispatches > 0
    assert be.closed == 0


@pytest.mark.parametrize("name", TRACED)
def test_traced_call_leaves_no_tracer_behind(name, tmp_path):
    call, expected = ENTRY_POINTS[name]
    inner = ThreadBackend(max_workers=2)
    be = ResilientBackend(inner, RetryPolicy(speculate=False),
                          owns_inner=False)
    tracer = Tracer()
    try:
        np.testing.assert_array_equal(call(be, tmp_path, trace=tracer),
                                      expected)
    finally:
        be.close()
        inner.close()
    assert any(s.name == "exec.batch" for s in tracer.spans())
    for link in _chain(be):
        assert "tracer" not in vars(link), link


@pytest.mark.parametrize("name", METERED)
def test_dispatches_per_call_matches_the_backend(name, tmp_path):
    call, expected = ENTRY_POINTS[name]
    be = _Spy()
    reg = MetricsRegistry()
    np.testing.assert_array_equal(call(be, tmp_path, metrics=reg), expected)
    assert reg.value("exec.dispatches_per_call") == be.dispatches
    assert reg.value("exec.dispatches") == be.dispatches


@pytest.mark.parametrize("name", RESILIENT)
def test_owned_resilience_wrapper_is_closed_when_a_task_raises(
    name, tmp_path, monkeypatch
):
    call, _ = ENTRY_POINTS[name]
    closed = []
    real_close = ResilientBackend.close

    def close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(ResilientBackend, "close", close)
    be = _Failing()
    with pytest.raises(BackendError):
        call(be, tmp_path,
             resilience=RetryPolicy(max_retries=0, speculate=False))
    assert [w.inner for w in closed] == [be]
    assert be.closed == 0  # the caller's backend stays the caller's


def test_concurrent_calls_count_their_own_dispatches():
    """Each call counts the batches it ran, not every batch the shared
    pool served while the call was open."""
    reg = MetricsRegistry()
    errors = []

    def worker() -> None:
        try:
            for _ in range(200):
                parallel_merge(_A, _B, 2, backend="threads", metrics=reg)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert reg.value("merge.calls") == 800
    assert reg.value("exec.dispatches") == reg.value("merge.calls")
    assert reg.value("exec.dispatches_per_call") == 1


def test_supervising_backend_counts_into_each_call_s_registry():
    """A chain with no registry of its own counts a call's
    ``resilience.*`` into that call's registry for the call's duration
    only, so reusing it with another registry moves no count across."""
    from repro.resilience import DegradingBackend

    chain = DegradingBackend(["serial"])
    r1, r2 = MetricsRegistry(), MetricsRegistry()
    try:
        parallel_merge(_A, _B, 2, backend=chain, metrics=r1)
        assert chain.metrics is None
        parallel_merge(_A, _B, 2, backend=chain, metrics=r2)
        assert chain.metrics is None
        assert r1.value("resilience.batches") == 1
        assert r2.value("resilience.batches") == 1

        own = MetricsRegistry()
        chain.metrics = own  # a chain's own registry is never replaced
        parallel_merge(_A, _B, 2, backend=chain, metrics=r1)
        assert chain.metrics is own
        assert own.value("resilience.batches") == 1
        assert r1.value("resilience.batches") == 1
    finally:
        chain.close()


def test_concurrent_calls_on_one_chain_count_into_their_own_registries():
    """Calls running at once on one shared chain with no registry each
    count their ``resilience.*`` into their own ``metrics=``, and the
    chain is never rebound."""
    from repro.resilience import DegradingBackend

    chain = DegradingBackend(["serial"])
    registries = [MetricsRegistry() for _ in range(4)]
    start = threading.Barrier(len(registries))
    errors = []

    def worker(reg: MetricsRegistry) -> None:
        try:
            start.wait()
            for _ in range(50):
                parallel_merge(_A, _B, 2, backend=chain, metrics=reg)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(reg,))
               for reg in registries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        chain.close()
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert chain.metrics is None
    for reg in registries:
        assert reg.value("merge.calls") == 50
        assert reg.value("resilience.batches") == 50
