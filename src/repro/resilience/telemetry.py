"""Retry/timeout/speculation records of one resilient batch.

The supervisor records, per task, how many dispatches it took, which
attempt won (primary, retry, or speculative), every failure along the
way, and the exact backoff delays that were scheduled — the latter make
the seeded-jitter determinism directly testable.  A supervising backend
keeps only its latest batch (``last_batch``), which the conformance
chaos tier prints in its verdicts.

Totals go to the one counting path: :meth:`BatchTelemetry.publish`
adds a batch to the ``resilience.*`` counters of a
:class:`repro.obs.MetricsRegistry`, and the supervisor calls it for
every batch when its ``metrics`` attribute is set (pass ``metrics=`` to
an entry point to bind it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import TaskFailure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

__all__ = [
    "TaskTelemetry",
    "BatchTelemetry",
    "TELEMETRY_COUNTERS",
]

#: Batch aggregate fields mirrored into ``resilience.*`` counters.
TELEMETRY_COUNTERS = (
    "dispatches", "retries", "timeouts", "speculations", "worker_deaths",
)


@dataclass(frozen=True)
class TaskTelemetry:
    """Supervision record for one task of one batch."""

    index: int
    #: Total attempts dispatched (primary + retries + speculative).
    dispatches: int
    retries: int = 0
    timeouts: int = 0
    speculations: int = 0
    worker_deaths: int = 0
    #: Scheduled backoff delays, in order (seeded-jitter observable).
    backoff_delays_s: tuple[float, ...] = ()
    failures: tuple[TaskFailure, ...] = ()
    #: Which attempt produced the accepted result: ``"primary"``,
    #: ``"retry"``, or ``"speculative"``; ``None`` if the task failed.
    winner: str | None = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.winner is not None


@dataclass(frozen=True)
class BatchTelemetry:
    """Aggregate supervision record for one ``run_tasks`` batch."""

    tasks: tuple[TaskTelemetry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tasks)

    @property
    def dispatches(self) -> int:
        return sum(t.dispatches for t in self.tasks)

    @property
    def retries(self) -> int:
        return sum(t.retries for t in self.tasks)

    @property
    def timeouts(self) -> int:
        return sum(t.timeouts for t in self.tasks)

    @property
    def speculations(self) -> int:
        return sum(t.speculations for t in self.tasks)

    @property
    def worker_deaths(self) -> int:
        return sum(t.worker_deaths for t in self.tasks)

    @property
    def backoff_delays_s(self) -> tuple[float, ...]:
        out: list[float] = []
        for t in self.tasks:
            out.extend(t.backoff_delays_s)
        return tuple(out)

    def describe(self) -> str:
        return (
            f"tasks={len(self.tasks)} dispatches={self.dispatches} "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"speculations={self.speculations} "
            f"worker_deaths={self.worker_deaths}"
        )

    def publish(self, metrics: "MetricsRegistry") -> None:
        """Add this batch to the registry's ``resilience.*`` counters."""
        metrics.counter("resilience.batches").inc()
        metrics.counter("resilience.tasks").inc(len(self.tasks))
        for key in TELEMETRY_COUNTERS:
            count = getattr(self, key)
            if count:
                metrics.counter(f"resilience.{key}").inc(count)
