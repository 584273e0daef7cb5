"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os
import uuid

import numpy as np
import pytest

# Keep the suite deterministic: no adaptive rerouting and no timing-probe
# calibration while tests run.  Autotuner-specific tests opt back in with
# monkeypatch.setenv("REPRO_AUTOTUNE", "1") against a seeded Autotuner.
os.environ.setdefault("REPRO_AUTOTUNE", "0")


@pytest.fixture(autouse=True)
def _serve_pool_isolation(request):
    """Reset process-wide execution state after every serve-tier test.

    The server tier exercises the shared pool cache
    (:func:`repro.execution.pool.shared_backend`) and may seed the
    process-wide autotuner; without a reset, a pool a server test
    poisoned (or thresholds it pinned) would leak into
    ordering-sensitive suites.  Scoped to ``tests/serve`` by path so
    the rest of the suite keeps its (cheap) no-op behaviour.
    """
    yield
    if "tests/serve" not in str(request.node.fspath).replace(os.sep, "/"):
        return
    from repro.execution.autotune import get_autotuner
    from repro.execution.pool import close_shared_backends

    close_shared_backends()
    get_autotuner().forget()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that draw data inline."""
    return np.random.default_rng(12345)


@pytest.fixture(params=[0, 1, 2, 17])
def sorted_pair_random(request) -> tuple[np.ndarray, np.ndarray]:
    """Several deterministic random sorted pairs of unequal lengths."""
    g = np.random.default_rng(request.param)
    a = np.sort(g.integers(0, 100, size=int(g.integers(0, 60))))
    b = np.sort(g.integers(0, 100, size=int(g.integers(1, 60))))
    return a, b


def reference_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ground-truth stable merge: mergesort over concatenation.

    Concatenating A before B and running a stable sort yields exactly
    the A-before-equal-B order every kernel must produce.
    """
    return np.sort(np.concatenate([a, b]), kind="mergesort")


def spill_runs(directory, x, memory: int) -> list:
    """Sorted ``memory``-element runs of ``x``, each saved as a ``RunFile``."""
    from repro.external import RunFile

    x = np.asarray(x)
    runs = []
    for lo in range(0, len(x), memory):
        run = np.sort(x[lo:lo + memory], kind="stable")
        path = os.path.join(str(directory), f"run-{uuid.uuid4().hex}.npy")
        np.save(path, run)
        runs.append(RunFile(path, len(run), str(run.dtype)))
    return runs


def tagged_reference_merge(a, b) -> list[tuple]:
    """Stable merge of (value, source, index) tuples for stability checks."""
    tagged = [(v, 0, i) for i, v in enumerate(a)] + [
        (v, 1, j) for j, v in enumerate(b)
    ]
    return sorted(tagged, key=lambda t: (t[0], t[1], t[2]))
