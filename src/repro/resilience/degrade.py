"""Graceful backend degradation: processes → threads → serial.

Two entry points:

* :func:`resolve_backend` — one-shot resolution.  Probes the preferred
  backend (construct + run a trivial task) and walks down the chain on
  failure, emitting a structured :class:`DegradationWarning` per hop,
  until a healthy backend answers; returns it wrapped in a
  :class:`~repro.resilience.ResilientBackend`.
* :class:`DegradingBackend` — a live fallback chain.  Levels are built
  lazily, each wrapped in a :class:`ResilientBackend`; when a batch
  still fails after that layer's retries (e.g. the pool keeps dying),
  the level accrues a strike, the batch transparently re-runs on the
  next level, and a level that exhausts its strike budget trips its
  per-level :class:`~repro.resilience.breaker.CircuitBreaker`.

Degradation is no longer a one-way ratchet: pass a
:class:`~repro.resilience.breaker.RecoveryPolicy` and a tripped level
re-enters rotation through the breaker's seeded-jitter cooldown and a
health re-probe (half-open → closed), emitting a structured
:class:`RecoveryEvent` that subscribers — the control plane, the serve
front door — consume to undo their own degradation reactions.  With
``recovery=None`` (the default) a tripped level stays out for the rest
of the run, the pre-breaker behavior.

The re-run-elsewhere move is safe for the same reason retries are: the
paper's merge tasks are idempotent and write disjoint slices
(Theorem 14), so a batch that half-ran on a dying pool can be replayed
wholesale on another executor — and one that re-runs on a *recovered*
executor is just another replay.  The serial tail of the default chain
cannot die, so a degrading execution always completes (or surfaces a
genuine task bug).
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..backends.base import Backend, tasks_must_pickle
from ..errors import BackendError, BackendUnavailableError, InputError
from .breaker import CLOSED, CircuitBreaker, RecoveryPolicy
from .policy import RetryPolicy
from .resilient import ResilientBackend
from .telemetry import ExecutionTelemetry

__all__ = [
    "DEGRADATION_CHAIN",
    "DegradationWarning",
    "DegradationEvent",
    "RecoveryEvent",
    "subscribe_degradation",
    "subscribe_recovery",
    "probe_backend",
    "resolve_backend",
    "DegradingBackend",
]

#: Default fallback order, fastest-but-most-fragile first.
DEGRADATION_CHAIN: tuple[str, ...] = ("processes", "threads", "serial")


class DegradationWarning(UserWarning):
    """A backend was skipped or abandoned in favor of a lower level."""


@dataclass(frozen=True, slots=True)
class DegradationEvent:
    """One structured hop down the degradation chain.

    Warnings tell a human *that* a level fell; events tell a subscriber
    *what* to do about it.  The control plane (:mod:`repro.control`)
    subscribes so a backend falling from processes to threads triggers
    re-tuning (the calibrated threads↔processes crossover is now
    routing work to a dead level) instead of silently worse latency.

    ``kind``
        ``"unavailable"`` (construction failed), ``"probe-failed"``
        (health probe), or ``"batch-failed"`` (a live batch exhausted
        the level's retries).
    ``backend`` / ``fallback``
        The level that fell and the next level tried (``None`` when the
        chain is exhausted).
    """

    kind: str
    backend: str
    fallback: str | None
    reason: str
    what: str = ""


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """One structured hop *back up* the degradation chain.

    The mirror image of :class:`DegradationEvent`: a level whose
    circuit breaker half-opened just passed its health re-probe and
    re-entered rotation.  Subscribers record it: the
    :class:`repro.control.Controller` reports it in its decision and
    ``control.recoveries`` (it retunes nothing), the serve front door
    counts ``serve.recoveries``.

    ``backend``
        The recovered level's name.
    ``outage_s``
        How long the level was out of rotation (first open → close).
    ``opens``
        How many open→half-open cycles it took (1 = first re-probe
        succeeded).
    """

    backend: str
    outage_s: float
    opens: int
    reason: str = ""
    what: str = ""


_SUB_LOCK = threading.Lock()
_SUBSCRIBERS: list[Callable[[DegradationEvent], None]] = []
_RECOVERY_SUBSCRIBERS: list[Callable[[RecoveryEvent], None]] = []


def subscribe_degradation(
    callback: Callable[[DegradationEvent], None],
) -> Callable[[], None]:
    """Register ``callback`` for every degradation event; returns an
    unsubscribe function.  Callbacks must be cheap and must not raise
    (exceptions are swallowed — degradation handling can never be made
    less reliable by an observer)."""
    with _SUB_LOCK:
        _SUBSCRIBERS.append(callback)

    def unsubscribe() -> None:
        with _SUB_LOCK:
            try:
                _SUBSCRIBERS.remove(callback)
            except ValueError:
                pass

    return unsubscribe


def subscribe_recovery(
    callback: Callable[[RecoveryEvent], None],
) -> Callable[[], None]:
    """Register ``callback`` for every :class:`RecoveryEvent`; returns
    an unsubscribe function.  Same contract as
    :func:`subscribe_degradation`: callbacks must be cheap and their
    exceptions are swallowed."""
    with _SUB_LOCK:
        _RECOVERY_SUBSCRIBERS.append(callback)

    def unsubscribe() -> None:
        with _SUB_LOCK:
            try:
                _RECOVERY_SUBSCRIBERS.remove(callback)
            except ValueError:
                pass

    return unsubscribe


def _emit_event(event: DegradationEvent) -> None:
    with _SUB_LOCK:
        subscribers = list(_SUBSCRIBERS)
    for cb in subscribers:
        try:
            cb(event)
        except Exception:  # noqa: BLE001 - observers never break fallback
            pass


def _emit_recovery(event: RecoveryEvent) -> None:
    with _SUB_LOCK:
        subscribers = list(_RECOVERY_SUBSCRIBERS)
    for cb in subscribers:
        try:
            cb(event)
        except Exception:  # noqa: BLE001 - observers never break recovery
            pass


def _probe_task() -> int:
    # Module-level so it pickles into process workers.
    return 1729


def _construct(name: str, max_workers: int | None = None):
    """Build a registered backend, tolerating no-``max_workers`` ctors."""
    from ..backends.base import get_backend

    if max_workers is None:
        return get_backend(name)
    try:
        return get_backend(name, max_workers=max_workers)
    except TypeError:
        return get_backend(name)


def _probe_instance(backend) -> str | None:
    """Run one trivial task; return a defect description or ``None``."""
    try:
        results = backend.run_tasks([_probe_task])
    except Exception as exc:  # noqa: BLE001 - probe reports, never raises
        return f"health probe failed: {exc!r}"
    if len(results) != 1 or results[0].value != 1729:
        return "health probe returned a wrong result"
    return None


def probe_backend(name: str, *, max_workers: int | None = None) -> str | None:
    """Check one backend end to end.  ``None`` means healthy."""
    try:
        backend = _construct(name, max_workers)
    except BackendUnavailableError as exc:
        return f"requires {exc.missing}"
    except (BackendError, InputError) as exc:
        return str(exc)
    try:
        return _probe_instance(backend)
    finally:
        backend.close()


def _candidates(
    preferred: str | None, chain: Sequence[str]
) -> list[str]:
    if preferred is None:
        return list(chain)
    if preferred in chain:
        return list(chain[list(chain).index(preferred):])
    return [preferred, *chain]


def resolve_backend(
    preferred: str | None = None,
    *,
    policy: RetryPolicy | None = None,
    max_workers: int | None = None,
    chain: Sequence[str] = DEGRADATION_CHAIN,
) -> ResilientBackend:
    """Resolve the best healthy backend at or below ``preferred``.

    Construction failures (a missing optional dependency, restricted
    shared memory) and failed health probes both demote: each hop emits a
    :class:`DegradationWarning` naming the skipped backend and the
    reason, and the first healthy level is returned wrapped in a
    :class:`ResilientBackend` (with ``policy``, default policy when
    ``None``).  Raises :class:`~repro.errors.BackendError` only if every
    candidate — including ``serial`` — is broken.
    """
    reasons: list[str] = []
    names = _candidates(preferred, chain)
    for pos, name in enumerate(names):
        kind = "unavailable"
        try:
            backend = _construct(name, max_workers)
        except BackendUnavailableError as exc:
            reason = f"requires {exc.missing}"
        except (BackendError, InputError) as exc:
            reason = str(exc)
        else:
            defect = _probe_instance(backend)
            if defect is None:
                if pos > 0:
                    warnings.warn(
                        f"degraded to backend {name!r} "
                        f"(skipped: {'; '.join(reasons)})",
                        DegradationWarning,
                        stacklevel=2,
                    )
                return ResilientBackend(backend, policy, owns_inner=True)
            backend.close()
            reason = defect
            kind = "probe-failed"
        reasons.append(f"{name}: {reason}")
        _emit_event(DegradationEvent(
            kind=kind,
            backend=name,
            fallback=names[pos + 1] if pos + 1 < len(names) else None,
            reason=reason,
            what="backend resolution",
        ))
        warnings.warn(
            f"backend {name!r} unavailable ({reason}); "
            f"falling back along {names[pos + 1:] or ['<nothing>']}",
            DegradationWarning,
            stacklevel=2,
        )
    raise BackendError(
        "no backend in the degradation chain is healthy: "
        + "; ".join(reasons)
    )


class DegradingBackend(Backend):
    """A backend that falls down a chain of levels as they fail.

    ``chain`` entries are backend names or ready :class:`Backend`
    instances; each is lazily wrapped in a :class:`ResilientBackend`
    sharing this instance's ``telemetry``.  A batch runs on the highest
    healthy level; if that level's resilience layer still raises
    :class:`~repro.errors.BackendError`, the level takes a strike, a
    :class:`DegradationWarning` is emitted, and the batch is replayed on
    the next level (safe: tasks are idempotent with disjoint outputs).
    A level with ``failure_threshold`` strikes trips its circuit
    breaker.

    ``recovery`` decides what a tripped breaker means: ``None`` (the
    default) keeps the level out for the rest of the run; a
    :class:`~repro.resilience.breaker.RecoveryPolicy` re-probes it
    after a seeded-jitter cooldown — on the next dispatch that crosses
    the level, via an explicit :meth:`reprobe` call (the serve front
    door runs one in the background), or both.  A passed re-probe
    emits a :class:`RecoveryEvent`, counts ``resilience.recoveries``
    when the telemetry is bound to a registry, and puts the level back
    in front of everything below it.

    ``clock`` injects time for the breakers (tests advance a fake
    clock instead of sleeping through cooldowns).
    """

    name = "degrading"

    def __init__(
        self,
        chain: Sequence[Any] = DEGRADATION_CHAIN,
        *,
        policy: RetryPolicy | None = None,
        max_workers: int | None = None,
        failure_threshold: int = 1,
        recovery: RecoveryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not chain:
            raise BackendError("degradation chain must not be empty")
        self._entries = list(chain)
        self._policy = policy
        self._max_workers = max_workers
        self._failure_threshold = max(1, failure_threshold)
        self._recovery = recovery
        self._clock = clock
        self._levels: dict[int, ResilientBackend] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        self._disabled: dict[int, str] = {}
        self.telemetry = ExecutionTelemetry()

    def _entry_name(self, index: int) -> str:
        entry = self._entries[index]
        return entry if isinstance(entry, str) else getattr(
            entry, "name", type(entry).__name__
        )

    @property
    def out_of_process(self) -> bool:
        """True when some level is a process pool: a batch may be
        replayed on any level, so its tasks must be picklable."""
        return any(
            entry == "processes" if isinstance(entry, str)
            else tasks_must_pickle(entry)
            for entry in self._entries
        )

    def _breaker(self, index: int) -> CircuitBreaker:
        breaker = self._breakers.get(index)
        if breaker is None:
            breaker = CircuitBreaker(
                self._entry_name(index),
                failure_threshold=self._failure_threshold,
                policy=self._recovery,
                clock=self._clock,
            )
            self._breakers[index] = breaker
        return breaker

    def _level(self, index: int) -> ResilientBackend:
        level = self._levels.get(index)
        if level is None:
            entry = self._entries[index]
            if isinstance(entry, ResilientBackend):
                level = entry
            elif isinstance(entry, str):
                level = ResilientBackend(
                    _construct(entry, self._max_workers),
                    self._policy,
                    owns_inner=True,
                )
            else:
                level = ResilientBackend(entry, self._policy, owns_inner=False)
            level.telemetry = self.telemetry
            self._levels[index] = level
        return level

    def _disable(self, index: int, reason: str) -> None:
        self._disabled[index] = reason

    def _eligible(self, index: int) -> bool:
        """Whether a level may receive work right now (no transitions)."""
        if index in self._disabled:
            return False
        breaker = self._breakers.get(index)
        return breaker is None or breaker.allows()

    @property
    def active_backend(self) -> str | None:
        """Name of the first level still eligible to run batches."""
        for i in range(len(self._entries)):
            if self._eligible(i):
                return self._entry_name(i)
        return None

    def breaker_states(self) -> dict[str, str]:
        """Per-level breaker state, for doctor output and tests."""
        out: dict[str, str] = {}
        for i in range(len(self._entries)):
            name = self._entry_name(i)
            if i in self._disabled:
                out[name] = "disabled"
            else:
                breaker = self._breakers.get(i)
                out[name] = breaker.state if breaker is not None else CLOSED
        return out

    def _next_level_name(self, index: int) -> str | None:
        for j in range(index + 1, len(self._entries)):
            if self._eligible(j):
                return self._entry_name(j)
        return None

    def _recover(self, index: int, breaker: CircuitBreaker) -> bool:
        """Run the half-open health probe for ``index``.

        The caller must have claimed the probe slot via
        ``breaker.try_probe()``.  Returns True when the level passed and
        is back in rotation (a :class:`RecoveryEvent` was emitted).
        """
        name = self._entry_name(index)
        opens = breaker.opens
        # A dead pool does not heal by being asked again: rebuild
        # constructible (string) entries from scratch before probing.
        if isinstance(self._entries[index], str):
            stale = self._levels.pop(index, None)
            if stale is not None:
                try:
                    stale.close()
                except Exception:  # noqa: BLE001 - old pool may be wrecked
                    pass
        try:
            level = self._level(index)
        except (BackendError, InputError) as exc:
            breaker.record_probe_failure(f"rebuild failed: {exc}")
            return False
        defect = _probe_instance(level)
        if defect is not None:
            breaker.record_probe_failure(defect)
            return False
        outage = breaker.record_probe_success()
        event = RecoveryEvent(
            backend=name,
            outage_s=outage,
            opens=opens,
            reason=breaker.last_reason,
            what="health re-probe",
        )
        registry = self.telemetry.metrics
        if registry is not None:
            registry.counter("resilience.recoveries").inc()
        _emit_recovery(event)
        warnings.warn(
            f"recovery: backend {name!r} passed its re-probe after "
            f"{outage:.2f}s out of rotation; promoting",
            DegradationWarning,
            stacklevel=4,
        )
        return True

    def reprobe(self) -> list[str]:
        """Re-probe every open breaker whose cooldown has expired.

        Returns the names of levels that recovered.  Safe to call from
        a background loop (the serve front door does); dispatches also
        re-probe opportunistically, so calling this is an optimization
        for idle periods, not a requirement.
        """
        recovered: list[str] = []
        for i in range(len(self._entries)):
            if i in self._disabled:
                continue
            breaker = self._breakers.get(i)
            if breaker is not None and breaker.try_probe():
                if self._recover(i, breaker):
                    recovered.append(self._entry_name(i))
        return recovered

    def _dispatch(self, op: Callable[[ResilientBackend], Any], what: str) -> Any:
        last: BackendError | None = None
        for i in range(len(self._entries)):
            if i in self._disabled:
                continue
            name = self._entry_name(i)
            breaker = self._breakers.get(i)
            if breaker is not None and not breaker.allows():
                # Open level: opportunistically re-probe once the
                # cooldown expired, then fall through on failure.
                if not (breaker.try_probe() and self._recover(i, breaker)):
                    continue
            try:
                level = self._level(i)
            except BackendUnavailableError as exc:
                self._disable(i, f"requires {exc.missing}")
                last = exc
                _emit_event(DegradationEvent(
                    kind="unavailable",
                    backend=name,
                    fallback=self._next_level_name(i),
                    reason=f"requires {exc.missing}",
                    what=what,
                ))
                warnings.warn(
                    f"degradation: backend {name!r} unavailable "
                    f"(requires {exc.missing}); trying the next level",
                    DegradationWarning,
                    stacklevel=3,
                )
                continue
            try:
                return op(level)
            except BackendError as exc:
                last = exc
                self._breaker(i).record_failure(str(exc))
                _emit_event(DegradationEvent(
                    kind="batch-failed",
                    backend=name,
                    fallback=self._next_level_name(i),
                    reason=str(exc),
                    what=what,
                ))
                warnings.warn(
                    f"degradation: backend {name!r} failed {what} even with "
                    f"retries ({exc}); replaying on the next level",
                    DegradationWarning,
                    stacklevel=3,
                )
        raise BackendError(
            f"every level of the degradation chain failed {what}"
        ) from last

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list:
        tasks = list(tasks)
        return self._dispatch(lambda lvl: lvl.run_tasks(tasks), "a task batch")

    def close(self) -> None:
        for level in self._levels.values():
            level.close()
        self._levels.clear()
