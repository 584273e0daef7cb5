"""ResilientBackend: per-task retry, timeout, and straggler speculation.

The paper's Theorem 14 splits a merge into ``p`` *independent,
idempotent* tasks that write *disjoint* output slices.  That structural
guarantee — proved per-run by the conformance write-audit
(:mod:`repro.conformance.races`) — is exactly what fault-tolerant
schedulers need: any task can be retried after a crash, abandoned after
a deadline, or speculatively duplicated while still running, and the
merged output cannot be corrupted because every attempt writes the same
bytes to the same private slice.  This module exploits the guarantee
for lock-free *recovery*:

* attempts run on the inner backend's own workers: every attempt
  ready at one instant (all primaries, every retry whose backoff has
  elapsed, every straggler's duplicate) starts with one
  :meth:`~repro.backends.Backend.start_tasks` call, whose futures
  report completion to the supervisor's inbox (a done callback); the
  supervisor sleeps on the inbox until an attempt finishes or the next
  deadline, backoff or straggler threshold comes due.  A serial inner
  backend runs each wave on the calling thread, in task order;
* every task of a batch is supervised individually — a failure never
  aborts its siblings;
* failed attempts are retried with exponential backoff and seeded
  jitter, up to ``policy.max_retries`` times;
* attempts that exceed ``policy.timeout_s`` are *abandoned*, not
  cancelled — CPython cannot interrupt an arbitrary callable — and a
  fresh attempt is started; a late result from an abandoned attempt
  is accepted if it arrives before a replacement wins, otherwise
  discarded;
* once enough tasks have finished to estimate a typical duration,
  stragglers get a speculative duplicate and the first finisher wins
  (disable via ``policy.speculate`` for non-idempotent task sets);
* the batch either returns complete results or raises a
  :class:`~repro.errors.BatchError` listing **all** tasks that
  exhausted their budget, each with its failure history.

Every batch leaves a full :class:`~repro.resilience.BatchTelemetry`
(dispatches, retries, timeouts, speculations, worker deaths, backoff
delays) in ``last_batch``, and its totals go to the ``resilience.*``
counters of the registry on ``metrics`` or, when none is set, of the
calling context's :data:`CALL_METRICS`.  A worker death is counted
once per broken pool, however many in-flight tasks it took down; each
of those tasks still records its own ``worker-death`` failure and
retry.
"""

from __future__ import annotations

import random
import statistics
import time
from concurrent.futures import Future
from contextvars import ContextVar
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..backends.base import (
    Backend,
    TaskResult,
    failed_future,
    get_backend,
    innermost_backend,
    task_failure,
)
from ..errors import BatchError, TaskFailure
from .policy import RetryPolicy
from .telemetry import BatchTelemetry, TaskTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

__all__ = ["CALL_METRICS", "ResilientBackend", "innermost_backend"]

#: The ``metrics=`` registry of the entry-point call running in this
#: context, set by :class:`repro.execution.Execution` for the call's
#: duration.  A supervising backend with no ``metrics`` of its own
#: counts into it, so one chain shared by concurrent calls counts each
#: call into that call's registry without being rebound.
CALL_METRICS: "ContextVar[MetricsRegistry | None]" = ContextVar(
    "repro_call_metrics", default=None
)


class _TaskState:
    """Supervisor-side bookkeeping for one task of the batch."""

    __slots__ = (
        "index", "task", "active", "abandoned", "dispatches", "retries",
        "timeouts", "speculations", "worker_deaths", "failures",
        "backoffs", "retry_at", "result", "winner", "done",
    )

    def __init__(self, index: int, task: Callable[[], Any]) -> None:
        self.index = index
        self.task = task
        #: future -> (kind, started_at) for in-flight attempts.
        self.active: dict[Future, tuple[str, float]] = {}
        #: future -> kind for abandoned (timed-out) attempts whose late
        #: success we would still accept.
        self.abandoned: dict[Future, str] = {}
        self.dispatches = 0
        self.retries = 0
        self.timeouts = 0
        self.speculations = 0
        self.worker_deaths = 0
        self.failures: list[TaskFailure] = []
        self.backoffs: list[float] = []
        self.retry_at: float | None = None
        self.result: TaskResult | None = None
        self.winner: str | None = None
        self.done = False


class ResilientBackend(Backend):
    """Fault-tolerant wrapper around any :class:`Backend`.

    Parameters
    ----------
    inner:
        The backend that actually executes attempts — an instance or a
        registry name.
    policy:
        The :class:`~repro.resilience.RetryPolicy`; defaults to a
        moderate 2-retry, no-timeout, speculation-on policy.
    max_workers:
        Forwarded to the inner backend when ``inner`` is a name.
    owns_inner:
        Whether :meth:`close` closes the inner backend.  Defaults to
        True (and always True when ``inner`` is a name); pass False
        when wrapping a backend whose lifetime someone else manages.
    """

    name = "resilient"

    def __init__(
        self,
        inner: Backend | str,
        policy: RetryPolicy | None = None,
        *,
        max_workers: int | None = None,
        owns_inner: bool | None = None,
    ) -> None:
        if isinstance(inner, str):
            kwargs = {} if max_workers is None else {"max_workers": max_workers}
            inner = get_backend(inner, **kwargs)
            owns_inner = True
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self._owns_inner = True if owns_inner is None else owns_inner
        self._rng = random.Random(self.policy.seed)
        #: Registry receiving every batch's ``resilience.*`` totals.
        self.metrics: "MetricsRegistry | None" = None
        self.last_batch: BatchTelemetry | None = None

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        tasks = list(tasks)
        n = len(tasks)
        if n == 0:
            self._record(BatchTelemetry())
            return []
        pol = self.policy
        states = [_TaskState(i, t) for i, t in enumerate(tasks)]
        #: Every attempt still worth waiting for, in start order.
        owner: dict[Future, _TaskState] = {}
        durations: list[float] = []
        #: The pool-breaking errors already counted as a worker death.
        deaths: set[BaseException] = set()
        #: Finished (or cancelled) attempts, in completion order.
        inbox: "SimpleQueue[Future]" = SimpleQueue()
        pending = n

        def launch(wave: list[tuple[_TaskState, str]]) -> None:
            """Start one wave of attempts with one ``start_tasks`` call."""
            started = time.monotonic()
            try:
                futures = self.inner.start_tasks([st.task for st, _ in wave])
            except Exception as exc:  # noqa: BLE001 - e.g. a closed pool
                futures = [failed_future(exc) for _ in wave]
            for (st, kind), fut in zip(wave, futures):
                st.dispatches += 1
                if kind == "retry":
                    st.retries += 1
                elif kind == "speculative":
                    st.speculations += 1
                st.active[fut] = (kind, started)
                owner[fut] = st
                fut.add_done_callback(inbox.put)

        def conclude(st: _TaskState) -> None:
            nonlocal pending
            st.done = True
            pending -= 1
            for fut in (*st.active, *st.abandoned):
                fut.cancel()  # a duplicate still queued never runs
                owner.pop(fut, None)

        def after_attempt_failure(st: _TaskState, now: float) -> None:
            """Schedule a retry, or conclude the task as failed."""
            if st.retries < pol.max_retries:
                if st.retry_at is None:
                    delay = pol.backoff_s(st.retries + 1, self._rng)
                    st.backoffs.append(delay)
                    st.retry_at = now + delay
            elif not st.active and st.retry_at is None:
                conclude(st)

        def finished(fut: Future, now: float) -> None:
            st = owner.pop(fut)
            info = st.active.pop(fut, None)
            kind = info[0] if info is not None else st.abandoned.pop(fut)
            try:
                result = fut.result()
            except Exception as exc:  # noqa: BLE001 - recorded per task
                if info is None:
                    # An abandoned attempt's failure was already booked
                    # as its timeout.
                    return
                failure = task_failure(st.index, exc, attempts=st.dispatches)
                if failure.kind == "worker-death" and exc not in deaths:
                    deaths.add(exc)
                    st.worker_deaths += 1
                st.failures.append(failure)
                after_attempt_failure(st, now)
            else:
                st.result = TaskResult(st.index, result.value, result.elapsed_s)
                st.winner = kind
                durations.append(result.elapsed_s)
                conclude(st)

        launch([(st, "primary") for st in states])
        while pending:
            threshold = self._straggler_threshold(durations)
            try:
                ready = [inbox.get(timeout=self._next_event_s(states, threshold))]
            except Empty:
                ready = []
            while not inbox.empty():
                ready.append(inbox.get())
            now = time.monotonic()
            for fut in ready:
                if fut in owner:  # not dropped by its task concluding
                    finished(fut, now)

            threshold = self._straggler_threshold(durations)
            wave: list[tuple[_TaskState, str]] = []
            for st in states:
                if st.done:
                    continue
                if pol.timeout_s is not None:
                    # Abandon attempts that blew the per-attempt deadline.
                    expired = [
                        fut for fut, (_k, t0) in st.active.items()
                        if now - t0 >= pol.timeout_s
                    ]
                    for fut in expired:
                        st.abandoned[fut] = st.active.pop(fut)[0]
                        st.timeouts += 1
                        st.failures.append(TaskFailure(
                            index=st.index, kind="timeout",
                            message=(
                                f"attempt exceeded the {pol.timeout_s:.3g}s "
                                "deadline and was abandoned"
                            ),
                            attempts=st.dispatches,
                        ))
                    if expired:
                        after_attempt_failure(st, now)
                        if st.done:
                            continue
                if st.retry_at is not None:
                    if now >= st.retry_at:
                        st.retry_at = None
                        wave.append((st, "retry"))
                elif self._may_speculate(st, threshold) and now - min(
                    t0 for _k, t0 in st.active.values()
                ) >= threshold:
                    wave.append((st, "speculative"))
            if wave:
                launch(wave)

        self._record(BatchTelemetry(tasks=tuple(
            TaskTelemetry(
                index=st.index,
                dispatches=st.dispatches,
                retries=st.retries,
                timeouts=st.timeouts,
                speculations=st.speculations,
                worker_deaths=st.worker_deaths,
                backoff_delays_s=tuple(st.backoffs),
                failures=tuple(st.failures),
                winner=st.winner,
                elapsed_s=st.result.elapsed_s if st.result is not None else 0.0,
            )
            for st in states
        )))

        failed = [st for st in states if st.result is None]
        if failed:
            raise BatchError(
                [self._final_failure(st) for st in failed], total=n,
                results=[st.result for st in states if st.result is not None],
            )
        return [st.result for st in states]

    def _record(self, batch: BatchTelemetry) -> None:
        self.last_batch = batch
        registry = self.metrics
        if registry is None:
            registry = CALL_METRICS.get()
        if registry is not None:
            batch.publish(registry)

    @staticmethod
    def _final_failure(st: _TaskState) -> TaskFailure:
        if st.failures:
            last = st.failures[-1]
            return TaskFailure(
                index=st.index, kind=last.kind,
                message=f"{last.message} (after {st.dispatches} attempt(s))",
                error=last.error, attempts=st.dispatches,
            )
        return TaskFailure(
            index=st.index, kind="exception",
            message="task never completed", attempts=st.dispatches,
        )

    def _straggler_threshold(self, durations: list[float]) -> float | None:
        """Age past which a running attempt is a straggler, once enough
        tasks finished to tell; ``None`` while speculation is off."""
        pol = self.policy
        if not pol.speculate or len(durations) < pol.min_completed_for_speculation:
            return None
        return max(pol.straggler_factor * statistics.median(durations),
                   pol.speculation_floor_s)

    def _may_speculate(self, st: _TaskState, threshold: float | None) -> bool:
        return (
            threshold is not None
            and bool(st.active)
            and st.retry_at is None
            and st.speculations < self.policy.max_speculative
        )

    def _next_event_s(
        self, states: list[_TaskState], threshold: float | None
    ) -> float | None:
        """Seconds until the next deadline, backoff or straggler
        threshold; ``None`` when only a finishing attempt can change
        anything."""
        timeout_s = self.policy.timeout_s
        events: list[float] = []
        for st in states:
            if st.done:
                continue
            if st.retry_at is not None:
                events.append(st.retry_at)
            starts = [t0 for _kind, t0 in st.active.values()]
            if timeout_s is not None:
                events.extend(t0 + timeout_s for t0 in starts)
            if self._may_speculate(st, threshold):
                events.append(min(starts) + threshold)
        if not events:
            return None
        return max(0.0, min(events) - time.monotonic())

    def close(self) -> None:
        if self._owns_inner:
            self.inner.close()
