"""Admission control: a bounded front door that sheds before it queues.

A service that accepts everything degrades for everyone — the queue
grows, every deadline blows, and the eventual answers are all late.
The :class:`AdmissionController` caps the number of requests alive in
the server (computing on the event loop, or waiting on and running in
the executor) at ``capacity``; a request arriving past the cap is
*shed* immediately with a 429-style rejection payload (see
:mod:`.protocol`), which costs the server one JSON line instead of one
queue slot.  Combined with per-request deadlines (checked before any
compute starts, and enforced over a large request's executor span
with ``asyncio.wait_for``) this bounds both the memory and the latency
a traffic spike can inflict.

The controller is deliberately tiny and lock-based rather than
asyncio-native: the server admits and releases on its event loop, and
a plain mutex keeps the invariant airtight for a caller on any other
thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded in-flight budget with shed accounting.

    ``capacity`` is the maximum number of concurrently admitted
    requests; :meth:`try_admit` returns False (and counts
    ``serve.shed``) once the budget is exhausted.  Every successful
    admit must be paired with exactly one :meth:`release`.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._metrics = metrics
        self._inflight = 0
        self._peak = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def peak(self) -> int:
        """High-water mark of concurrently admitted requests."""
        return self._peak

    def try_admit(self) -> bool:
        """Claim one slot; False means the caller must shed the request."""
        with self._lock:
            if self._inflight >= self.capacity:
                shed = True
            else:
                shed = False
                self._inflight += 1
                if self._inflight > self._peak:
                    self._peak = self._inflight
        if self._metrics is not None:
            if shed:
                self._metrics.counter("serve.shed").inc()
            else:
                self._metrics.gauge("serve.inflight").set(self._inflight)
        return not shed

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching try_admit()")
            self._inflight -= 1
            inflight = self._inflight
        if self._metrics is not None:
            self._metrics.gauge("serve.inflight").set(inflight)
