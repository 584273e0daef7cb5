"""Backend protocol and registry.

A backend executes a batch of independent tasks — one per merge-path
segment — and reports per-task timing.  Tasks never need to communicate
(the paper's Remark after Algorithm 1: cores write disjoint addresses),
so the interface is a bare fork/join: :meth:`Backend.start_tasks`
starts every task of a batch and returns one future per task, and
:meth:`Backend.run_tasks` waits for all of them, which is the barrier at
the end of Algorithm 1.  A supervisor
(:class:`repro.resilience.ResilientBackend`) uses the futures directly,
so it waits on the backend's own workers instead of on threads of its
own.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import (
    BackendError,
    BackendUnavailableError,
    BatchError,
    InputError,
    TaskFailure,
)

__all__ = [
    "Backend",
    "TaskBatch",
    "TaskResult",
    "collect",
    "failed_future",
    "task_failure",
    "innermost_backend",
    "tasks_must_pickle",
    "get_backend",
    "available_backends",
    "register_backend",
]


@dataclass(slots=True)
class TaskBatch:
    """A labelled batch of independent tasks for one fork/join dispatch.

    This is the unit of the batched execution engine
    (:mod:`repro.execution`): every entry point gathers *all* the
    segment tasks of one phase — every pair of a sort round, every
    sub-segment of an SPM block — into a single ``TaskBatch`` and
    submits it with one :meth:`Backend.run_batch` call, so the number
    of backend dispatches per call is ``O(log N)`` rather than
    ``O(p · log N)``.

    ``label`` names the phase for the ``exec.batch`` trace span;
    ``meta`` carries free-form attributes (round index, pair count, …)
    recorded on that span.
    """

    tasks: Sequence[Callable[[], Any]]
    label: str = "batch"
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(slots=True)
class TaskResult:
    """Outcome of one task executed by a backend.

    ``value`` is whatever the task callable returned; ``elapsed_s`` is
    the task's own wall-clock duration (used for load-balance
    diagnostics, not for the Figure 5 speedup numbers, which come from
    end-to-end timing).
    """

    index: int
    value: Any
    elapsed_s: float


def task_failure(index: int, exc: BaseException, attempts: int = 1) -> TaskFailure:
    """Classify the exception of one failed task attempt.

    A broken executor (a pool whose worker process died) is a
    ``worker-death``; anything else the task raised is an
    ``exception``.  Every task in flight on a broken process pool
    carries the same exception object, so the object identifies the
    death.
    """
    if isinstance(exc, BrokenExecutor):
        return TaskFailure(
            index=index, kind="worker-death",
            message=f"worker process died before returning a result ({exc!r})",
            error=exc, attempts=attempts,
        )
    return TaskFailure(
        index=index, kind="exception", message=repr(exc), error=exc,
        attempts=attempts,
    )


def failed_future(exc: BaseException) -> Future:
    """A future that is already done with ``exc``."""
    fut: Future = Future()
    fut.set_exception(exc)
    return fut


def collect(
    items: Sequence[Any], outcome: Callable[[int, Any], TaskResult]
) -> list[TaskResult]:
    """Gather ``outcome(i, items[i])`` for every task: the barrier.

    Every outcome is taken, so a failed task never hides the outcomes
    of the tasks after it; failures are raised together as one
    :class:`~repro.errors.BatchError`.
    """
    results = []
    failures = []
    for i, item in enumerate(items):
        try:
            results.append(outcome(i, item))
        except Exception as exc:  # noqa: BLE001 - collected into BatchError
            failures.append(task_failure(i, exc))
    if failures:
        raise BatchError(failures, total=len(items), results=results)
    return results


def _result(_index: int, fut: Future) -> TaskResult:
    return fut.result()


class Backend:
    """Fork/join executor over independent tasks.

    A subclass overrides :meth:`start_tasks` (a pool, which runs tasks
    on its own workers) or :meth:`run_tasks` (an executor that runs a
    batch on the calling thread), or both; each defaults to the other.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Optional :class:`repro.obs.Tracer`; when set, every task executed
    #: through :meth:`_timed` is wrapped in a ``backend.task`` span
    #: recorded on the worker thread that ran it.  ``None`` (the class
    #: default) costs nothing on the hot path.
    tracer = None

    #: Number of :meth:`run_batch` dispatches this instance has served,
    #: across all callers (each call's own count is
    #: :attr:`repro.execution.Execution.dispatches`).  A plain int (class
    #: default 0, shadowed per instance on first dispatch) keeps the hot
    #: path lock-free — concurrent callers may undercount, never block.
    dispatches: int = 0

    #: Whether tasks run in other processes and must therefore be
    #: picklable (module-level callables over file offsets, not closures).
    out_of_process: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if (cls.run_tasks is Backend.run_tasks
                and cls.start_tasks is Backend.start_tasks):
            raise TypeError(
                f"{cls.__name__} must override run_tasks or start_tasks"
            )

    def start_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[Future]:
        """Start every task; return one future per task, in task order.

        Each future resolves to the task's :class:`TaskResult`, or
        raises what the task raised (a ``BrokenProcessPool`` when its
        worker died).  The call does not wait for the tasks, except on
        a backend that runs them on the calling thread.

        The default runs the batch with :meth:`run_tasks` on the calling
        thread and returns futures that are already done.
        """
        tasks = list(tasks)
        errors: dict[int, BaseException] = {}
        try:
            results = self.run_tasks(tasks)
        except BatchError as exc:
            results = exc.results
            for f in exc.failures:
                errors[f.index] = f.error if f.error is not None else exc
        except Exception as exc:  # noqa: BLE001 - the whole batch failed
            results = []
            errors = dict.fromkeys(range(len(tasks)), exc)
        futures = [Future() for _ in tasks]
        for result in results:
            futures[result.index].set_result(result)
        for i, fut in enumerate(futures):
            if not fut.done():
                fut.set_exception(errors.get(i) or BackendError(
                    f"task {i} returned no result"
                ))
        return futures

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> list[TaskResult]:
        """Execute every task and block until all complete (the barrier).

        Results are returned in task order regardless of completion
        order.  Contract for failures: the backend attempts **every**
        task of the batch — a task exception never aborts the remaining
        tasks — and then raises a single
        :class:`~repro.errors.BatchError` collecting one
        :class:`~repro.errors.TaskFailure` per failed task (index, kind,
        message, underlying exception).  This gives callers the full
        damage report and, because merge-path tasks are idempotent and
        write disjoint output slices (Theorem 14), lets a supervisor
        such as :class:`repro.resilience.ResilientBackend` re-execute
        exactly the failed indices.

        The default starts the batch with :meth:`start_tasks` and waits
        on each future in turn.
        """
        return collect(self.start_tasks(tasks), _result)

    def run_batch(self, batch: TaskBatch) -> list[TaskResult]:
        """Dispatch one :class:`TaskBatch` (the batched-engine entry).

        Semantically identical to ``run_tasks(batch.tasks)`` — one
        fork/join barrier over every task — but additionally counts the
        dispatch on :attr:`dispatches` and, when a tracer is installed,
        encloses the whole barrier in an ``exec.batch`` span carrying
        the batch label, size, and metadata.  Wrappers (resilient /
        fault-injecting backends) inherit this method, so a supervised
        batch is still *one* dispatch from the caller's point of view
        no matter how many per-task retries happen underneath.
        """
        self.dispatches += 1
        tracer = self.tracer
        if tracer is None:
            return self.run_tasks(batch.tasks)
        with tracer.span(
            "exec.batch", label=batch.label, size=len(batch.tasks),
            backend=self.name, **batch.meta,
        ):
            return self.run_tasks(batch.tasks)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Convenience: apply ``fn`` to each item as one task batch."""
        results = self.run_batch(
            TaskBatch([(lambda it=item: fn(it)) for item in items], label="map")
        )
        return [r.value for r in results]

    def _timed(self, index: int, task: Callable[[], Any]) -> TaskResult:
        """Run one task body, under a ``backend.task`` span if traced.

        The task's own exception propagates unchanged.
        """
        tracer = self.tracer
        t0 = time.perf_counter()
        if tracer is None:
            value = task()
        else:
            with tracer.span("backend.task", index=index, backend=self.name):
                value = task()
        return TaskResult(index, value, time.perf_counter() - t0)

    def close(self) -> None:
        """Release pooled resources; default is a no-op."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def innermost_backend(backend: Backend) -> Backend:
    """Unwrap ``.inner`` chains (resilient / fault-injection wrappers)."""
    seen: set[int] = set()
    while True:
        inner = getattr(backend, "inner", None)
        if not isinstance(inner, Backend) or id(inner) in seen:
            return backend
        seen.add(id(backend))
        backend = inner


def tasks_must_pickle(backend: Backend) -> bool:
    """Whether tasks dispatched on ``backend`` may cross a process boundary.

    True for a process pool, for any wrapper over one, and for a
    degradation chain with a process level.  In-memory work refuses such
    a backend (:class:`repro.execution.Execution`); only the external
    sort, whose tasks carry file paths and offsets, runs on it.
    """
    return innermost_backend(backend).out_of_process


_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under ``name`` (idempotent overwrite)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def get_backend(name: str, **kwargs: Any) -> Backend:
    """Instantiate a backend by registry name.

    ``kwargs`` are forwarded to the backend constructor (e.g.
    ``max_workers``).
    """
    _ensure_builtin()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InputError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    try:
        return factory(**kwargs)
    except BackendUnavailableError:
        raise
    except ImportError as exc:
        # A backend whose constructor imports an absent optional
        # dependency surfaces as a structured unavailability, never as a
        # bare ImportError the caller has to pattern-match.
        raise BackendUnavailableError(name, missing=exc.name or str(exc)) from exc


def _ensure_builtin() -> None:
    """Populate the registry lazily to avoid import cycles."""
    if _REGISTRY:
        return
    from .serial import SerialBackend
    from .simulated import SimulatedBackend
    from .threads import ThreadBackend
    from .processes import ProcessBackend

    register_backend("serial", SerialBackend)
    register_backend("threads", ThreadBackend)
    register_backend("processes", ProcessBackend)
    register_backend("simulated", SimulatedBackend)
