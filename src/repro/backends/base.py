"""Backend protocol and registry.

A backend executes a batch of independent tasks — one per merge-path
segment — and reports per-task timing.  Tasks never need to communicate
(the paper's Remark after Algorithm 1: cores write disjoint addresses),
so the interface is a bare fork/join: :meth:`Backend.run_tasks` blocks
until every task finished, which is the barrier at the end of
Algorithm 1.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import BackendError, BackendUnavailableError, InputError, TaskFailure

__all__ = [
    "Backend",
    "TaskBatch",
    "TaskResult",
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


class Backend(abc.ABC):
    """Abstract fork/join executor over independent tasks."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Optional :class:`repro.obs.Tracer`; when set, every task executed
    #: through :meth:`_attempt`/:meth:`_timed` is wrapped in a
    #: ``backend.task`` span recorded on the worker thread that ran it.
    #: ``None`` (the class default) costs nothing on the hot path.
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

    @abc.abstractmethod
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
        """

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

    def _run_body(self, index: int, task: Callable[[], Any]) -> Any:
        """Execute the task body, under a ``backend.task`` span if traced."""
        tracer = self.tracer
        if tracer is None:
            return task()
        with tracer.span("backend.task", index=index, backend=self.name):
            return task()

    def _timed(self, index: int, task: Callable[[], Any]) -> TaskResult:
        t0 = time.perf_counter()
        try:
            value = self._run_body(index, task)
        except Exception as exc:  # noqa: BLE001 - uniformly wrapped
            raise BackendError(f"task {index} failed: {exc!r}") from exc
        return TaskResult(index=index, value=value, elapsed_s=time.perf_counter() - t0)

    def _attempt(
        self, index: int, task: Callable[[], Any]
    ) -> tuple[TaskResult | None, TaskFailure | None]:
        """Run one task, classifying rather than raising its failure."""
        t0 = time.perf_counter()
        try:
            value = self._run_body(index, task)
        except Exception as exc:  # noqa: BLE001 - collected into BatchError
            return None, TaskFailure(
                index=index, kind="exception", message=repr(exc), error=exc
            )
        return TaskResult(index=index, value=value,
                          elapsed_s=time.perf_counter() - t0), None

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
