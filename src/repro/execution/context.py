"""One call context for every parallel entry point.

Every entry point of the package — the merges (Algorithm 1 and 2,
k-way, keyed, in-place), the sorts and the external sort — does the
same bookkeeping around its batches.  :class:`Execution` is that
bookkeeping, written once:

* **keep in-memory work in-process** — a backend whose tasks run in
  other processes (:func:`~repro.backends.tasks_must_pickle`) raises
  :class:`~repro.errors.InputError` before anything runs; only the
  external sort, whose tasks carry file paths and offsets, passes
  ``out_of_core=True`` to run on the process pool;
* **resolve the backend** — a registry name becomes the process-wide
  shared pool (:mod:`repro.execution.pool`), possibly rerouted by the
  autotuner for an ``n``-element call; a traced call gets a cold pool of
  its own; ``resilience`` wraps the result in a
  :class:`~repro.resilience.ResilientBackend`;
* **route the call's registry** — for the call's duration ``metrics``
  is the context's :data:`~repro.resilience.resilient.CALL_METRICS`,
  so a supervising backend without a registry of its own counts its
  ``resilience.*`` totals into this call's registry, and a chain shared
  by concurrent calls is never rebound;
* **install the tracer** on the backend chain for the call's duration;
* **run batches** (:meth:`Execution.run`), counting each one and
  publishing the measured ``balance.task_time_imbalance``;
* **on exit**, publish ``<op>.calls``, ``exec.dispatches`` and
  ``exec.dispatches_per_call``, and close only what the call owns.

The call's ``merge.*`` counts are not kept here: the segment runner
(:func:`repro.execution.engine.run_segments`) publishes them from the
plan of each batch it runs.

One merge opens no context at all: :func:`runs_inline` decides, once
per call, that a merge requested on a pooled name runs below the serial
cutover with nothing to supervise or trace.  Algorithm 1 then has
nothing to split, and :func:`repro.execution.engine.merge_whole` runs
it as one segment (no diagonal search) in one batch on the shared
serial backend, publishing the same counts through
:func:`publish_batch` and :func:`publish_call`.

An entry point that calls another on its own resolved backend (the
cache-efficient sort over the parallel sort and SPM, a sort over its
rounds) opens a nested context: it counts its ``<op>.calls`` and runs
its batches, which count towards the outermost context, and the
outermost context publishes the call's dispatches once.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING

from ..backends import (
    Backend, TaskBatch, TaskResult, get_backend, tasks_must_pickle,
)
from ..errors import InputError
from ..resilience.resilient import CALL_METRICS
from .autotune import get_autotuner
from .pool import POOLED_BACKENDS, shared_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import RetryPolicy

__all__ = ["Execution", "runs_inline", "publish_batch", "publish_call"]

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
    resilience, trace, metrics:
        The standard execution surface of the entry points.
    out_of_core:
        The call's tasks carry file paths and offsets, not arrays, so
        they may run on a process pool (the external sort only).
    """

    def __init__(
        self,
        backend: Backend | str,
        p: int = 1,
        *,
        op: str | None = None,
        n: int | None = None,
        resilience: "RetryPolicy | bool | None" = None,
        trace: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        out_of_core: bool = False,
    ) -> None:
        self.backend = backend
        self.trace = trace
        self.metrics = metrics
        #: Batches run by this call, nested contexts included (counted
        #: on the outermost context only).
        self.dispatches = 0
        self._p = p
        self._op = op
        self._n = n
        self._resilience = resilience
        self._out_of_core = out_of_core
        self._owned = False
        #: ``(backend, previous tracer)`` for each backend the call's
        #: tracer was installed on, restored on exit.
        self._tracers: list[tuple[Backend, object]] = []

    def __enter__(self) -> "Execution":
        parent = _CURRENT.get()
        self._nested = parent is not None and self.backend is parent.backend
        self._outer = parent._outer if self._nested else self
        if not self._nested:
            self._resolve()
            if self.trace is not None:
                self._install_tracer()
        self._token = _CURRENT.set(self)
        if self.metrics is not None:
            self._metrics_token = CALL_METRICS.set(self.metrics)
        return self

    def _resolve(self) -> None:
        be = self.backend
        # Before the autotuner's reroute, so the verdict does not depend
        # on the call's size.
        if not self._out_of_core and (
            be == "processes" if isinstance(be, str) else tasks_must_pickle(be)
        ):
            raise InputError(
                "in-memory merges and sorts run in-process; the process "
                "pool serves only the external sort (use 'threads' or "
                "'serial' here, or external_sort on the process pool)"
            )
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
        self.backend = be

    def _install_tracer(self) -> None:
        seen: set[int] = set()
        be: object = self.backend
        while isinstance(be, Backend) and id(be) not in seen:
            seen.add(id(be))
            self._tracers.append((be, be.__dict__.get("tracer", _ABSENT)))
            be.tracer = self.trace
            be = getattr(be, "inner", None)

    def run(self, batch: TaskBatch) -> list[TaskResult]:
        """Dispatch one batch (one fork/join barrier) on the backend."""
        self._outer.dispatches += 1
        results = self.backend.run_batch(batch)
        if self.metrics is not None:
            publish_batch(self.metrics, results)
        return results

    def __exit__(self, *exc_info: object) -> None:
        _CURRENT.reset(self._token)
        metrics = self.metrics
        if metrics is None and not self._owned and not self._tracers:
            return  # an untraced, uncounted call on a shared backend
        if metrics is not None:
            CALL_METRICS.reset(self._metrics_token)
        for be, prev in self._tracers:
            if prev is _ABSENT:
                be.__dict__.pop("tracer", None)
            else:
                be.tracer = prev
        try:
            if metrics is not None:
                publish_call(metrics, self._op,
                             None if self._nested else self.dispatches)
        finally:
            if self._owned:
                self.backend.close()


def runs_inline(
    backend: Backend | str,
    n: int,
    *,
    resilience: "RetryPolicy | bool | None" = None,
    trace: "Tracer | None" = None,
) -> bool:
    """Whether an ``n``-element merge requested on ``backend`` runs
    inline, as one segment without an :class:`Execution`
    (:func:`repro.execution.engine.merge_whole`).

    That is a pooled name the autotuner reroutes to ``"serial"`` (below
    the serial cutover), on a call with no ``resilience`` and no tracer:
    a supervised or traced call measures or guards the requested
    configuration, so it keeps its partition.  ``"processes"`` never
    runs inline, so that :class:`Execution` refuses it for in-memory
    work at every size.
    """
    return (
        trace is None and not resilience and isinstance(backend, str)
        and backend != "processes"
        and get_autotuner().choose_backend(backend, n) != backend
    )


def publish_batch(
    metrics: "MetricsRegistry", results: list[TaskResult]
) -> None:
    """The measured ``balance.task_time_imbalance`` of one batch: its
    slowest task's time over the mean task time."""
    if not results:
        return
    times = [r.elapsed_s for r in results]
    mean = sum(times) / len(times)
    if mean > 0:
        metrics.gauge("balance.task_time_imbalance").set(max(times) / mean)


def publish_call(
    metrics: "MetricsRegistry", op: str | None, dispatches: int | None
) -> None:
    """A call's own counts: ``<op>.calls`` (none when ``op`` is
    ``None``) and, for an outermost call, the batches it ran
    (``exec.dispatches`` and ``exec.dispatches_per_call``; ``None`` for
    a nested call, whose batches its outermost call counts)."""
    if op is not None:
        metrics.counter(f"{op}.calls").inc()
    if dispatches is not None:
        metrics.counter("exec.dispatches").inc(dispatches)
        metrics.gauge("exec.dispatches_per_call").set(dispatches)
