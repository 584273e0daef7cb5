"""Every merge call is one batch through the base ``Backend.run_batch``.

The benchmark's layer probe counts a call's batches by wrapping
``Backend.run_batch`` on the base class, so a backend that overrode
``run_batch`` without reaching the base method would run batches the
probe never sees, and ``dispatch.batches_per_call`` would read 0.  The
spy here wraps the same method the same way: a merge below the serial
cutover (``runs_inline``, one segment on the shared serial backend),
``merge(a, b)`` and a partitioned merge must each show exactly one
batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import Backend
from repro.core.parallel_merge import merge, parallel_merge
from repro.errors import NotSortedError
from repro.execution import autotune
from repro.execution.autotune import Autotuner
from repro.obs import MetricsRegistry

_G = np.random.default_rng(23)
_EMPTY = np.array([], dtype=np.int32)
CASES = {
    "int32": (np.sort(_G.integers(-99, 99, 300)).astype(np.int32),
              np.sort(_G.integers(-99, 99, 300)).astype(np.int32)),
    "unbalanced": (np.sort(_G.integers(0, 10**6, 4000)).astype(np.int32),
                   np.sort(_G.integers(0, 10**6, 40)).astype(np.int32)),
    "float64": (np.sort(_G.random(50)), np.sort(_G.random(70))),
    "bool": (np.array([False, True, True]), np.array([False, False, True])),
    "empty-a": (_EMPTY, np.arange(5, dtype=np.int32)),
    "both-empty": (_EMPTY, _EMPTY),
}


@pytest.fixture
def reroute(monkeypatch, tmp_path):
    """Every pooled-name call in the test runs below the serial cutover."""
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1 << 30)
    monkeypatch.setattr(autotune, "_GLOBAL", tuner)


@pytest.fixture
def batches(monkeypatch):
    """``(backend name, batch label)`` of every batch the base class ran."""
    seen: list[tuple[str, str]] = []
    inner = Backend.run_batch

    def run_batch(backend, batch):
        seen.append((backend.name, batch.label))
        return inner(backend, batch)

    monkeypatch.setattr(Backend, "run_batch", run_batch)
    return seen


def _oracle(a, b):
    return np.sort(np.concatenate([a, b]), kind="stable")


@pytest.mark.parametrize("case", list(CASES))
def test_an_inline_parallel_merge_is_one_batch(case, reroute, batches):
    a, b = CASES[case]
    reg = MetricsRegistry()
    out = parallel_merge(a, b, 2, metrics=reg)
    assert out.tobytes() == _oracle(a, b).tobytes()
    assert batches == [("serial", "merge.partition")]
    assert reg.value("exec.dispatches_per_call") == 1
    assert reg.value("merge.search_probes") == 0


@pytest.mark.parametrize("case", list(CASES))
def test_merge_is_one_batch(case, batches):
    a, b = CASES[case]
    out = merge(a, b)
    assert out.tobytes() == _oracle(a, b).tobytes()
    assert batches == [("serial", "merge.partition")]


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_a_partitioned_merge_is_one_batch(backend, batches):
    a, b = CASES["int32"]
    parallel_merge(a, b, 2, backend=backend)
    assert batches == [(backend, "merge.partition")]


def test_an_unsorted_inline_merge_still_ran_its_one_batch(reroute, batches):
    with pytest.raises(NotSortedError):
        parallel_merge(np.array([3, 1, 2]), np.arange(4), 2)
    assert batches == [("serial", "merge.partition")]
