"""Below the serial cutover a merge runs as one segment.

With ``REPRO_AUTOTUNE=1`` and a seeded tuner whose cutover exceeds every
input here, ``backend="threads"`` is rerouted to ``"serial"``, and
:class:`repro.execution.Execution` marks the call ``inline``:
``parallel_merge`` makes no diagonal search and runs one ``merge_into``
task in one batch on the shared serial backend.  The outputs must equal
the partitioned path's bit for bit, the validation must be the same,
and calls that are supervised, traced, named ``"serial"`` or given an
explicit backend must still partition into ``p`` segments.  A rerouted
sort keeps its rounds, run on the shared serial backend.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.backends import ThreadBackend
from repro.core.merge_sort import parallel_merge_sort
from repro.core.parallel_merge import parallel_merge
from repro.errors import DTypeMismatchError, NotSortedError
from repro.execution import autotune, shared_backend
from repro.execution.autotune import Autotuner
from repro.external.parallel import external_sort_file
from repro.obs import MetricsRegistry, Tracer

_G = np.random.default_rng(19)
_EMPTY = np.array([], dtype=np.int64)

MERGE_CASES = {
    "int32": (np.sort(_G.integers(-500, 500, 700)).astype(np.int32),
              np.sort(_G.integers(-500, 500, 300)).astype(np.int32)),
    "float64-nan-signed-zero": (
        np.array([-np.inf, -1.5, -0.0, 0.0, -0.0, 2.0, np.inf, np.nan]),
        np.array([-1.5, 0.0, -0.0, 0.0, 3.0, np.nan, np.nan])),
    "int-and-float": (np.sort(_G.integers(0, 50, 40)),
                      np.sort(_G.random(30) * 50)),
    "empty-a": (_EMPTY, np.sort(_G.integers(0, 9, 12))),
    "empty-b": (np.sort(_G.integers(0, 9, 12)), _EMPTY),
    "both-empty": (_EMPTY, _EMPTY),
}
SORT_CASES = {
    "int32": _G.integers(-1000, 1000, 900).astype(np.int32),
    "float64-nan-signed-zero": np.array(
        [0.0, np.nan, -0.0, 1.0, -np.inf, 0.0, np.nan, -0.0, -1.0, np.inf]),
    "two-elements": np.array([3, 1]),
}


@pytest.fixture
def reroute(monkeypatch, tmp_path):
    """Every pooled-name call in the test runs below the serial cutover."""
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1 << 30)
    monkeypatch.setattr(autotune, "_GLOBAL", tuner)
    return tuner


def _refuse_partitions(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("partition_merge_path called on a one-segment merge")

    for module in ("repro.core.parallel_merge", "repro.execution.engine"):
        monkeypatch.setattr(importlib.import_module(module),
                            "partition_merge_path", refuse)


def _batched(fn, x, *rest):
    be = ThreadBackend(2)
    try:
        out = fn(x, *rest, 2, backend=be)
    finally:
        be.close()
    assert be.dispatches >= 1
    return out


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _dispatch_counts() -> tuple[int, int]:
    return (shared_backend("serial", 2).dispatches,
            shared_backend("threads", 2).dispatches)


@pytest.mark.parametrize("case", list(MERGE_CASES))
def test_inline_merge_equals_the_batched_merge(case, reroute, monkeypatch):
    a, b = MERGE_CASES[case]
    want = _batched(parallel_merge, a, b)
    _refuse_partitions(monkeypatch)
    serial, threads = _dispatch_counts()
    got = parallel_merge(a, b, 2, backend="threads")
    assert _dispatch_counts() == (serial + 1, threads)
    _same_bits(got, want)


@pytest.mark.parametrize("case", list(SORT_CASES))
def test_rerouted_sort_equals_the_batched_sort(case, reroute):
    x = SORT_CASES[case]
    want = _batched(parallel_merge_sort, x)
    serial, threads = _dispatch_counts()
    got = parallel_merge_sort(x, 2, backend="threads")
    now = _dispatch_counts()
    assert now[0] > serial and now[1] == threads
    _same_bits(got, want)
    assert not np.shares_memory(got, x)  # sorts its own copy


def test_inline_merge_validates_like_the_batched_merge(reroute):
    a = np.array([1, 4, 3, 7])
    b = np.arange(5)
    with pytest.raises(NotSortedError) as batched:
        _batched(parallel_merge, a, b)
    with pytest.raises(NotSortedError) as inline:
        parallel_merge(a, b, 2, backend="threads")
    assert (inline.value.name, inline.value.index) == ("A", 1)
    assert (inline.value.name, inline.value.index) == (
        batched.value.name, batched.value.index)
    with pytest.raises(NotSortedError) as on_b:
        parallel_merge(b, a, 2, backend="threads")
    assert (on_b.value.name, on_b.value.index) == ("B", 1)
    # A failing dtype pair is never cached as a pass.
    for _ in range(3):
        with pytest.raises(DTypeMismatchError):
            parallel_merge(np.array(["a", "b"]), np.array([1, 2]), 2,
                           backend="threads")


def test_inline_merge_publishes_the_one_segment_plan(reroute):
    a, b = MERGE_CASES["int32"]
    reg = MetricsRegistry()
    parallel_merge(a, b, 2, backend="threads", metrics=reg)
    n = len(a) + len(b)
    snap = reg.snapshot()
    assert snap["merge.calls"] == 1
    assert snap["exec.dispatches"] == 1
    assert snap["exec.dispatches_per_call"] == 1
    assert snap["merge.segments"] == 1
    assert snap["merge.moves"] == n
    assert snap["merge.comparisons"] == n - 1
    assert snap["merge.search_probes"] == 0
    assert snap["balance.work_spread"] == 0

    one_sided = MetricsRegistry()
    parallel_merge(a, _EMPTY, 2, backend="threads", metrics=one_sided)
    assert one_sided.value("merge.moves") == len(a)
    assert one_sided.value("merge.comparisons") == 0

    nothing = MetricsRegistry()
    parallel_merge(_EMPTY, _EMPTY, 2, backend="threads", metrics=nothing)
    assert nothing.value("merge.segments") == 0
    assert nothing.value("exec.dispatches_per_call") == 1


@pytest.mark.parametrize("kwargs", [
    {"backend": "threads", "resilience": True},
    {"backend": "threads", "trace": Tracer()},
    {"backend": "serial"},
], ids=["resilience", "traced", "serial-name"])
def test_supervised_traced_and_serial_calls_still_partition(reroute, kwargs):
    a, b = MERGE_CASES["int32"]
    reg = MetricsRegistry()
    got = parallel_merge(a, b, 2, metrics=reg, **kwargs)
    _same_bits(got, _batched(parallel_merge, a, b))
    assert reg.value("exec.dispatches_per_call") == 1
    assert reg.value("merge.segments") == 2


def test_explicit_instance_still_partitions(reroute):
    a, b = MERGE_CASES["int32"]
    be = ThreadBackend(2)
    reg = MetricsRegistry()
    try:
        parallel_merge(a, b, 2, backend=be, metrics=reg)
        parallel_merge_sort(a, 2, backend=be)
    finally:
        be.close()
    assert reg.value("merge.segments") == 2
    assert be.dispatches == 1 + 2  # the merge, then chunks and one round


def test_a_rerouted_external_sort_runs_on_the_serial_backend(
    reroute, tmp_path
):
    """An entry point with no one-segment form runs its batches on the
    shared serial backend it was rerouted to."""
    x = _G.integers(0, 1000, 700)
    np.save(tmp_path / "in.npy", x)
    serial = shared_backend("serial", 2)
    before = serial.dispatches
    final, _ = external_sort_file(str(tmp_path / "in.npy"),
                                  memory_elements=128,
                                  directory=str(tmp_path), backend="threads",
                                  workers=2)
    np.testing.assert_array_equal(np.load(final.path), np.sort(x))
    assert serial.dispatches > before
