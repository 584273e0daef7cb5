"""One call context for every parallel entry point.

Every entry point of the package — the merges (Algorithm 1 and 2,
k-way, keyed, in-place), the sorts and the external sort — does the
same bookkeeping around its batches.  :class:`Execution` is that
bookkeeping, written once:

* **resolve the backend** — a registry name becomes the process-wide
  shared pool (:mod:`repro.execution.pool`), possibly rerouted by the
  autotuner for an ``n``-element call; a traced call gets a cold pool of
  its own; ``resilience`` wraps the result in a
  :class:`~repro.resilience.ResilientBackend`; a telemetry sink on the
  result is bound to the caller's metrics registry;
* **snapshot** the ``MergeStats`` and dispatch counters;
* **install the tracer** on the backend chain for the call's duration;
* **run batches** (:meth:`Execution.run`), publishing the measured
  ``balance.task_time_imbalance``;
* **on exit**, copy supervision telemetry to the caller's sink, publish
  ``<op>.calls``, ``exec.dispatches``, ``exec.dispatches_per_call`` and
  the call's ``merge.*`` delta, and close only what the call owns.

An entry point that calls another on its own resolved backend (the
cache-efficient sort over the parallel sort and SPM, a sort over its
rounds) opens a nested context: it counts its ``<op>.calls`` and runs
its batches, but the outermost context publishes the call's dispatch
and merge totals once.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING

from ..backends import Backend, TaskBatch, TaskResult, get_backend
from ..types import MergeStats
from .autotune import get_autotuner
from .pool import POOLED_BACKENDS, shared_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import ExecutionTelemetry, RetryPolicy

__all__ = ["Execution"]

_CURRENT: ContextVar["Execution | None"] = ContextVar(
    "repro_execution", default=None
)
_ABSENT = object()


class Execution:
    """Context manager around one entry-point call.

    Parameters
    ----------
    backend, p:
        A :class:`~repro.backends.Backend` instance (used verbatim,
        never rerouted or closed) or a registry name resolved with ``p``
        workers.
    op:
        Metric prefix of the call counter (``"merge"`` publishes
        ``merge.calls``); ``None`` counts no calls.
    n:
        Element count for the autotuner's backend reroute.  Only
        untraced calls that pass it may be rerouted.
    resilience, telemetry, trace, metrics, stats:
        The standard execution surface of the entry points.  When
        ``metrics`` is given without ``stats`` a private
        :class:`~repro.types.MergeStats` is counted into (:attr:`stats`).
    """

    def __init__(
        self,
        backend: Backend | str,
        p: int = 1,
        *,
        op: str | None = None,
        n: int | None = None,
        resilience: "RetryPolicy | bool | None" = None,
        telemetry: "ExecutionTelemetry | None" = None,
        trace: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        stats: MergeStats | None = None,
    ) -> None:
        self.backend = backend
        self.trace = trace
        self.metrics = metrics
        self.stats = stats
        self._p = p
        self._op = op
        self._n = n
        self._resilience = resilience
        self._telemetry = telemetry

    def __enter__(self) -> "Execution":
        parent = _CURRENT.get()
        self._nested = parent is not None and self.backend is parent.backend
        self._owned = False
        if not self._nested:
            self._resolve()
        if self.stats is None and self.metrics is not None and not self._nested:
            self.stats = MergeStats()
        stats = self.stats
        self._before = (
            (stats.comparisons, stats.moves, stats.search_probes)
            if stats is not None else (0, 0, 0)
        )
        self._d0 = self.backend.dispatches
        self._tracers: list[tuple[Backend, object]] = []
        if self.trace is not None and not self._nested:
            self._install_tracer()
        self._token = _CURRENT.set(self)
        return self

    def _resolve(self) -> None:
        be = self.backend
        if isinstance(be, str):
            name = be
            if self.trace is not None:
                # A warm shared pool may multiplex every segment onto one
                # OS thread, which would gut the per-worker trace view.
                be = get_backend(name, max_workers=self._p)
                self._owned = True
            else:
                if self._n is not None:
                    name = get_autotuner().choose_backend(name, self._n)
                be = shared_backend(name, self._p)
                self._owned = name not in POOLED_BACKENDS
        if self._resilience:
            from ..resilience import ResilientBackend, RetryPolicy

            policy = (
                self._resilience
                if isinstance(self._resilience, RetryPolicy) else None
            )
            be = ResilientBackend(be, policy, owns_inner=self._owned)
            self._owned = True
            if self._telemetry is not None:
                be.telemetry = self._telemetry
        sink = getattr(be, "telemetry", None)
        if self.metrics is not None and sink is not None and sink.metrics is None:
            sink.metrics = self.metrics
        self._sink_start = len(sink.batches) if sink is not None else 0
        self.backend = be

    def _install_tracer(self) -> None:
        seen: set[int] = set()
        be: object = self.backend
        while isinstance(be, Backend) and id(be) not in seen:
            seen.add(id(be))
            self._tracers.append((be, be.__dict__.get("tracer", _ABSENT)))
            be.tracer = self.trace
            be = getattr(be, "inner", None)

    @property
    def dispatches(self) -> int:
        """Backend dispatches since the context was entered."""
        return self.backend.dispatches - self._d0

    def run(self, batch: TaskBatch) -> list[TaskResult]:
        """Dispatch one batch (one fork/join barrier) on the backend."""
        results = self.backend.run_batch(batch)
        if self.metrics is not None and results:
            times = [r.elapsed_s for r in results]
            mean = sum(times) / len(times)
            if mean > 0:
                self.metrics.gauge("balance.task_time_imbalance").set(
                    max(times) / mean
                )
        return results

    def __exit__(self, *exc_info: object) -> None:
        _CURRENT.reset(self._token)
        for be, prev in self._tracers:
            if prev is _ABSENT:
                be.__dict__.pop("tracer", None)
            else:
                be.tracer = prev
        try:
            metrics = self.metrics
            if metrics is not None and self._op is not None:
                metrics.counter(f"{self._op}.calls").inc()
            if self._nested:
                return
            # Copy batches supervised during the call to the caller's sink.
            sink = getattr(self.backend, "telemetry", None)
            caller = self._telemetry
            if caller is not None and sink is not None and sink is not caller:
                for batch in sink.batches[self._sink_start:]:
                    caller.record(batch)
            if metrics is not None:
                dispatched = self.dispatches
                metrics.counter("exec.dispatches").inc(dispatched)
                metrics.gauge("exec.dispatches_per_call").set(dispatched)
                if self.stats is not None:
                    metrics.record_merge_delta(self._before, self.stats)
        finally:
            if self._owned:
                self.backend.close()
