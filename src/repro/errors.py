"""Exception hierarchy for the merge-path reproduction package.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause while
still distinguishing input problems (:class:`InputError` and subclasses)
from simulator-detected model violations
(:class:`~repro.errors.MemoryConflictError`, :class:`SimulationError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class InputError(ReproError, ValueError):
    """An argument supplied by the caller is invalid."""


class NotSortedError(InputError):
    """An input array that must be sorted is not sorted.

    Merge Path (Definition 1 and every lemma built on it) assumes the two
    input arrays are sorted in non-decreasing order; violating that breaks
    the monotonicity of the merge-matrix cross diagonals (Corollary 12)
    that the diagonal binary search relies on.
    """

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        #: Index ``i`` such that ``arr[i] > arr[i + 1]``.
        self.index = index
        super().__init__(
            f"array {name!r} is not sorted: order violated at index {index} "
            f"(element {index} > element {index + 1})"
        )


class DTypeMismatchError(InputError):
    """Two arrays participating in a merge have incompatible dtypes."""


class PartitionError(ReproError):
    """A partitioning step produced an internally inconsistent result.

    This indicates a bug in a partitioner (or a baseline intentionally
    demonstrating incorrectness), never a user error.
    """


class SimulationError(ReproError):
    """Base class for PRAM / cache simulation failures."""


class MemoryConflictError(SimulationError):
    """The PRAM access auditor observed a forbidden concurrent access.

    Under CREW, two processors wrote the same address in one lockstep
    cycle; under EREW, two processors touched the same address at all.
    The offending address and processor ids are recorded for diagnosis.
    """

    def __init__(
        self, kind: str, address: object, processors: tuple[int, ...]
    ) -> None:
        self.kind = kind
        self.address = address
        self.processors = processors
        super().__init__(
            f"{kind} conflict at address {address!r} between processors "
            f"{sorted(processors)}"
        )


class DeadlockError(SimulationError):
    """No PRAM processor made progress during a lockstep cycle."""


class BackendError(ReproError):
    """An execution backend failed to run a task set."""


class BackendUnavailableError(BackendError):
    """A requested backend cannot run in this environment.

    Raised instead of a bare ``ImportError`` when a backend's supporting
    dependency is missing or its runtime prerequisites are absent.  The
    message names the missing piece and points at the degradation chain
    (``threads → serial`` by default) so callers can fall back
    deliberately via :class:`repro.resilience.DegradingBackend`.
    """

    def __init__(self, backend: str, missing: str, hint: str = "") -> None:
        self.backend = backend
        #: Name of the missing dependency or capability.
        self.missing = missing
        fallback = hint or (
            "fall back along the degradation chain "
            "(threads → serial by default), e.g. via "
            "repro.resilience.DegradingBackend"
        )
        super().__init__(
            f"backend {backend!r} is unavailable: requires {missing}; {fallback}"
        )


@dataclass(frozen=True)
class TaskFailure:
    """Record of one task that could not be completed by a backend.

    ``kind`` classifies the failure mode:

    * ``"exception"``    — the task callable raised;
    * ``"timeout"``      — the attempt exceeded the per-task deadline and
      was abandoned (safe to re-execute: Theorem 14 tasks are idempotent
      and write disjoint output slices);
    * ``"worker-death"`` — the worker process executing the task died
      (e.g. SIGKILL / OOM) and the pool reported it broken;
    * ``"unavailable"``  — no healthy executor could accept the task.
    """

    index: int
    kind: str
    message: str
    #: The underlying exception when one was captured (kept out of the
    #: dataclass repr so BatchError messages stay single-line per task).
    error: BaseException | None = field(default=None, repr=False)
    #: Dispatch attempts consumed on this task when the failure was
    #: recorded (1 = the primary attempt, no retries).
    attempts: int = 1

    def describe(self) -> str:
        return f"task {self.index} failed [{self.kind}]: {self.message}"


class BatchError(BackendError):
    """One or more tasks of a batch failed (ExceptionGroup-style).

    Unlike an abort-on-first-exception model, backends attempt **every**
    task of a batch and collect all failures here, so callers see the
    complete damage report: which task indices failed, how, and after
    how many attempts.  ``failures`` is ordered by task index; the first
    captured exception is chained as ``__cause__``.  ``results`` holds
    the :class:`~repro.backends.TaskResult` of every task that did
    complete.
    """

    def __init__(
        self,
        failures: Sequence[TaskFailure],
        total: int | None = None,
        results: Sequence[Any] = (),
    ) -> None:
        self.failures = tuple(sorted(failures, key=lambda f: f.index))
        self.results = tuple(results)
        #: Batch size, when the caller supplied it.
        self.total = total
        self.task_indices = tuple(f.index for f in self.failures)
        of = f" of {total}" if total is not None else ""
        lines = "; ".join(f.describe() for f in self.failures)
        super().__init__(f"{len(self.failures)}{of} task(s) failed: {lines}")
        for f in self.failures:
            if f.error is not None:
                self.__cause__ = f.error
                break


class ExperimentError(ReproError):
    """An experiment runner was configured inconsistently."""


class UnknownExperimentError(ExperimentError, KeyError):
    """Requested experiment id is not present in the registry."""

    def __init__(self, exp_id: str, known: tuple[str, ...]) -> None:
        self.exp_id = exp_id
        self.known = known
        super().__init__(
            f"unknown experiment {exp_id!r}; known ids: {', '.join(known)}"
        )
