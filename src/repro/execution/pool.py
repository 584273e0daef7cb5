"""Process-wide shared backend instances for string-named backends.

Before the batched execution engine, every entry point invoked with a
backend *name* (``parallel_merge(a, b, 4, backend="threads")``)
constructed a fresh backend — and therefore a fresh worker pool — and
tore it down at the end of the call.  At the paper's Xeon scale that
cost amortizes away; at the small/medium sizes of the bench grid it
*dominates* (pool construction is tens of microseconds to milliseconds,
comparable to the whole merge).

This module keeps one live backend per ``(name, max_workers)`` key for
the lifetime of the process.  Pools are created lazily by the backends
themselves, reused by every call, and shut down once at interpreter
exit (or explicitly via :func:`close_shared_backends`, which the test
suite uses for isolation).

Only the pooled builtin backends are cached — ``serial``, ``threads``
and ``processes``.  Other names (``simulated``) keep the old
construct-per-call behavior since their instances carry per-call
state.
"""

from __future__ import annotations

import atexit
import threading

from ..backends import Backend, get_backend

__all__ = ["shared_backend", "close_shared_backends", "is_shared", "POOLED_BACKENDS"]

#: Names eligible for process-wide caching.
POOLED_BACKENDS = ("serial", "threads", "processes")

_LOCK = threading.Lock()
_CACHE: dict[tuple[str, int | None], Backend] = {}


def shared_backend(name: str, max_workers: int | None = None) -> Backend:
    """Return the process-wide backend for ``(name, max_workers)``.

    The returned instance must **not** be closed by the caller; its
    lifetime is owned by this module.  Raises the same errors as
    :func:`repro.backends.get_backend` for unknown names.
    """
    if name not in POOLED_BACKENDS:
        return get_backend(name, max_workers=max_workers)
    key = (name, max_workers)
    be = _CACHE.get(key)  # a hit takes no lock: dict reads are atomic
    if be is not None:
        return be
    with _LOCK:
        be = _CACHE.get(key)
        if be is None:
            be = get_backend(name, max_workers=max_workers)
            _CACHE[key] = be
        return be


def is_shared(backend: Backend) -> bool:
    """Whether ``backend`` is one of the cached shared instances."""
    with _LOCK:
        return any(be is backend for be in _CACHE.values())


def close_shared_backends() -> None:
    """Shut down and forget every cached backend (test isolation hook)."""
    with _LOCK:
        backends = list(_CACHE.values())
        _CACHE.clear()
    for be in backends:
        be.close()


atexit.register(close_shared_backends)
