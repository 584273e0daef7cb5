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

* every task of a batch is supervised individually — a failure never
  aborts its siblings (the inner backends collect failures into
  :class:`~repro.errors.BatchError` per their contract);
* failed attempts are retried with exponential backoff and seeded
  jitter, up to ``policy.max_retries`` times;
* attempts that exceed ``policy.timeout_s`` are *abandoned*, not
  cancelled — CPython cannot interrupt an arbitrary callable — and a
  fresh attempt is dispatched; a late result from an abandoned attempt
  is accepted if it arrives before a replacement wins, otherwise
  discarded;
* once enough tasks have finished to estimate a typical duration,
  stragglers get a speculative duplicate and the first finisher wins
  (disable via ``policy.speculate`` for non-idempotent task sets);
* the batch either returns complete results or raises a
  :class:`~repro.errors.BatchError` listing **all** tasks that
  exhausted their budget, each with its failure history.

Every batch leaves a full :class:`~repro.resilience.BatchTelemetry`
(dispatches, retries, timeouts, speculations, backoff delays) in
``last_batch``, and its totals go to the ``resilience.*`` counters of
the registry on ``metrics`` or, when none is set, of the calling
context's :data:`CALL_METRICS`.
"""

from __future__ import annotations

import itertools
import queue
import random
import statistics
import threading
import time
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..backends.base import Backend, TaskResult, get_backend, innermost_backend
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


def _classify(exc: BaseException) -> tuple[str, str, BaseException]:
    """Map an attempt's exception to (kind, message, cause)."""
    if isinstance(exc, BatchError) and exc.failures:
        f = exc.failures[0]
        return f.kind, f.message, f.error or exc
    return "exception", repr(exc), exc


def _run_attempt(
    inner: Backend,
    task: Callable[[], Any],
    index: int,
    attempt_id: int,
    outbox: "queue.Queue",
) -> None:
    """One attempt = one single-task batch on the inner backend.

    Runs in its own daemon thread so the supervisor can abandon it; the
    outcome travels through ``outbox`` and late messages for concluded
    tasks are simply ignored.
    """
    try:
        res = inner.run_tasks([task])
    except BaseException as exc:  # noqa: BLE001 - reported to supervisor
        outbox.put((index, attempt_id, False, exc, 0.0))
    else:
        value = res[0].value if res else None
        elapsed = res[0].elapsed_s if res else 0.0
        outbox.put((index, attempt_id, True, value, elapsed))


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
        #: attempt_id -> (kind, started_at) for in-flight attempts.
        self.active: dict[int, tuple[str, float]] = {}
        #: attempt_id -> kind for abandoned (timed-out) attempts whose
        #: late success we would still accept.
        self.abandoned: dict[int, str] = {}
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
        outbox: queue.Queue = queue.Queue()
        states = [_TaskState(i, t) for i, t in enumerate(tasks)]
        attempt_ids = itertools.count()
        durations: list[float] = []
        pending = n

        def launch(st: _TaskState, kind: str) -> None:
            aid = next(attempt_ids)
            st.dispatches += 1
            if kind == "retry":
                st.retries += 1
            elif kind == "speculative":
                st.speculations += 1
            st.active[aid] = (kind, time.monotonic())
            threading.Thread(
                target=_run_attempt,
                args=(self.inner, st.task, st.index, aid, outbox),
                name=f"resilient-attempt-{st.index}-{aid}",
                daemon=True,
            ).start()

        def conclude(st: _TaskState) -> None:
            nonlocal pending
            st.done = True
            pending -= 1

        def accept(st: _TaskState, kind: str, value: Any, elapsed: float) -> None:
            st.result = TaskResult(index=st.index, value=value, elapsed_s=elapsed)
            st.winner = kind
            durations.append(elapsed)
            conclude(st)

        def after_attempt_failure(st: _TaskState, now: float) -> None:
            """Schedule a retry, or conclude the task as failed."""
            if st.retries < pol.max_retries:
                if st.retry_at is None:
                    delay = pol.backoff_s(st.retries + 1, self._rng)
                    st.backoffs.append(delay)
                    st.retry_at = now + delay
            elif not st.active and st.retry_at is None:
                conclude(st)

        for st in states:
            launch(st, "primary")

        while pending:
            try:
                msg = outbox.get(timeout=self._wait_s(states, durations))
            except queue.Empty:
                msg = None
            now = time.monotonic()

            if msg is not None:
                idx, aid, ok, payload, elapsed = msg
                st = states[idx]
                info = st.active.pop(aid, None)
                kind = info[0] if info is not None else st.abandoned.pop(aid, None)
                if st.done or kind is None:
                    pass  # late echo of a concluded task — discard
                elif ok:
                    accept(st, kind, payload, elapsed)
                elif info is not None:
                    # Failures of abandoned attempts were already booked
                    # as timeouts; only live attempts report here.
                    fkind, fmsg, ferr = _classify(payload)
                    if fkind == "worker-death":
                        st.worker_deaths += 1
                    st.failures.append(TaskFailure(
                        index=idx, kind=fkind, message=fmsg, error=ferr,
                        attempts=st.dispatches,
                    ))
                    after_attempt_failure(st, now)

            # Abandon attempts that blew the per-attempt deadline.
            if pol.timeout_s is not None:
                for st in states:
                    if st.done:
                        continue
                    expired = [
                        aid for aid, (_k, t0) in st.active.items()
                        if now - t0 > pol.timeout_s
                    ]
                    for aid in expired:
                        st.abandoned[aid] = st.active.pop(aid)[0]
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

            # Dispatch retries whose backoff has elapsed.
            for st in states:
                if not st.done and st.retry_at is not None and now >= st.retry_at:
                    st.retry_at = None
                    launch(st, "retry")

            # Speculatively duplicate stragglers.
            if pol.speculate and len(durations) >= pol.min_completed_for_speculation:
                threshold = max(
                    pol.straggler_factor * statistics.median(durations),
                    pol.speculation_floor_s,
                )
                for st in states:
                    if (
                        st.done
                        or not st.active
                        or st.retry_at is not None
                        or st.speculations >= pol.max_speculative
                    ):
                        continue
                    oldest = min(t0 for _k, t0 in st.active.values())
                    if now - oldest > threshold:
                        launch(st, "speculative")

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
                [self._final_failure(st) for st in failed], total=n
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

    def _wait_s(self, states: list[_TaskState], durations: list[float]) -> float:
        """Sleep until the next scheduled event, capped for liveness."""
        pol = self.policy
        now = time.monotonic()
        horizon = now + 0.25
        speculation_live = (
            pol.speculate
            and len(durations) >= pol.min_completed_for_speculation
        )
        threshold = (
            max(pol.straggler_factor * statistics.median(durations),
                pol.speculation_floor_s)
            if speculation_live else None
        )
        for st in states:
            if st.done:
                continue
            if st.retry_at is not None:
                horizon = min(horizon, st.retry_at)
            for _kind, t0 in st.active.values():
                if pol.timeout_s is not None:
                    horizon = min(horizon, t0 + pol.timeout_s)
                if threshold is not None and st.speculations < pol.max_speculative:
                    horizon = min(horizon, t0 + threshold)
        return max(0.002, horizon - now)

    def close(self) -> None:
        if self._owns_inner:
            self.inner.close()
