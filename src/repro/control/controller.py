"""The feedback controller: obs → autotune → SLO, closed.

Before this module, four layers each decided "how parallel" on their
own: the autotuner's one-shot cold-start probes, the resilience
degradation chain, the load-balance gauges, and the bench ratchet.
The :class:`Controller` wires them into one supervise-and-retune loop:

1. **Observe** — read one :meth:`~repro.obs.MetricsRegistry.snapshot`
   / :meth:`~repro.obs.MetricsRegistry.delta` window (the canary
   workload, or live traffic, has been feeding the registry), plus any
   :class:`~repro.resilience.DegradationEvent` received since the last
   step.
2. **Evaluate** — :func:`~repro.control.slo.evaluate_slo` over the
   window.
3. **Act** — drive the autotuner's calibration API
   (:meth:`~repro.execution.autotune.Autotuner.seed` /
   :meth:`~repro.execution.autotune.Autotuner.calibrate`), never a
   private side channel, so cold start and steady state share one
   policy code path (:mod:`repro.execution.tuning`).

Deterministic retune rules (in order; each fires at most once per step):

* Host fingerprint changed (cores added/removed, ``REPRO_*`` override
  flipped) → drop the cache and recalibrate: every cached crossover
  was measured on a machine that no longer exists.
* ``max_dispatches_per_call`` FAIL → double ``serial_cutover``
  (bounded): dispatch overhead dominates, so push more small calls
  onto the serial path.
* ``p99_ns_per_elem`` FAIL (and nothing above already retuned) → full
  recalibration: latency is out of budget for no structural reason the
  other rules recognise, so re-measure the crossovers.

Degradation and :class:`~repro.resilience.RecoveryEvent` events are
recorded (:attr:`ControlDecision.events` / ``.recoveries`` and the
``control.degradations`` / ``control.recoveries`` counters) but retune
nothing: the tuner only chooses between serial and the requested pooled
backend, so a fallen or recovered level leaves its one threshold where
it was, and the degradation chain itself routes around a dead level.

The controller's own activity lands in the same registry it reads
(``control.*`` metrics), so the loop is observable with the tools this
repo already has — and testable through snapshot/delta alone.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..execution.autotune import Autotuner, get_autotuner
from ..obs.tracer import NULL_SPAN
from ..resilience.degrade import (
    DegradationEvent,
    RecoveryEvent,
    subscribe_degradation,
    subscribe_recovery,
)
from .slo import FAIL, SLO, SLOReport, evaluate_slo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = ["ControlAction", "ControlDecision", "Controller"]

#: ``serial_cutover`` growth is bounded here — past this every pooled
#: request would reroute to serial and the controller would have tuned
#: the parallel library into a sequential one.
MAX_SERIAL_CUTOVER = 1 << 24

#: ``control.last_status`` gauge encoding.
STATUS_CODE = {"PASS": 0.0, "WARN": 1.0, "FAIL": 2.0}


@dataclass(frozen=True, slots=True)
class ControlAction:
    """One retuning act: what was done to the tuner and why."""

    kind: str  # "seed" | "recalibrate" | "recommend-p"
    reason: str
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        extras = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
            if self.details else ""
        )
        return f"{self.kind}{extras}: {self.reason}"


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """Everything one :meth:`Controller.step` observed and did."""

    report: SLOReport
    actions: tuple[ControlAction, ...]
    events: tuple[DegradationEvent, ...]
    delta: dict[str, Any]
    recoveries: tuple[RecoveryEvent, ...] = ()

    @property
    def retuned(self) -> bool:
        return any(a.kind in ("seed", "recalibrate") for a in self.actions)

    def describe(self) -> str:
        lines = [self.report.describe()]
        for ev in self.events:
            lines.append(
                f"  event: {ev.backend} {ev.kind} → "
                f"{ev.fallback or '<exhausted>'} ({ev.reason})"
            )
        for rec in self.recoveries:
            lines.append(
                f"  event: {rec.backend} recovered after {rec.outage_s:.2f}s "
                f"({rec.opens} open(s))"
            )
        for act in self.actions:
            lines.append(f"  action: {act.describe()}")
        if not self.actions:
            lines.append("  action: none (steady)")
        return "\n".join(lines)


class Controller:
    """Continuously retunes the autotuner against an SLO.

    Use as a context manager (subscription to degradation events is
    active between ``__enter__`` and ``__exit__``)::

        registry = MetricsRegistry()
        with Controller(slo, registry) as ctl:
            run_canary(registry, quick=True)
            decision = ctl.step()

    ``autotuner`` defaults to the process-wide one; tests inject their
    own (with a seeded cache path) to keep steps probe-free.
    """

    def __init__(
        self,
        slo: SLO,
        registry: "MetricsRegistry",
        *,
        autotuner: Autotuner | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.slo = slo
        self.registry = registry
        self.autotuner = autotuner or get_autotuner()
        self.tracer = tracer
        self._events: deque[DegradationEvent] = deque()
        self._recoveries: deque[RecoveryEvent] = deque()
        self._unsubscribe: Callable[[], None] | None = None
        self._unsubscribe_recovery: Callable[[], None] | None = None
        self._last_snapshot: dict[str, Any] | None = None
        self._fingerprint = self.autotuner.fingerprint()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Controller":
        """Begin listening for degradation/recovery events (idempotent)."""
        if self._unsubscribe is None:
            self._unsubscribe = subscribe_degradation(self._events.append)
        if self._unsubscribe_recovery is None:
            self._unsubscribe_recovery = subscribe_recovery(
                self._recoveries.append
            )
        return self

    def stop(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._unsubscribe_recovery is not None:
            self._unsubscribe_recovery()
            self._unsubscribe_recovery = None

    def __enter__(self) -> "Controller":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the control step ----------------------------------------------

    def _drain_events(self) -> tuple[DegradationEvent, ...]:
        events = []
        while self._events:
            events.append(self._events.popleft())
        return tuple(events)

    def _drain_recoveries(self) -> tuple[RecoveryEvent, ...]:
        events = []
        while self._recoveries:
            events.append(self._recoveries.popleft())
        return tuple(events)

    def step(self) -> ControlDecision:
        """One observe → evaluate → act cycle (see module docstring)."""
        span = (
            self.tracer.span("control.step")
            if self.tracer is not None else NULL_SPAN
        )
        with span:
            delta = self.registry.delta(self._last_snapshot)
            report = evaluate_slo(self.slo, delta)
            events = self._drain_events()
            recoveries = self._drain_recoveries()
            actions = self._decide(report)
            self._publish(report, events, actions, recoveries)
            self._last_snapshot = self.registry.snapshot()
            decision = ControlDecision(
                report=report, actions=actions, events=events, delta=delta,
                recoveries=recoveries,
            )
            span.set(status=report.status, actions=len(actions),
                     events=len(events), recoveries=len(recoveries))
        return decision

    def _decide(self, report: SLOReport) -> tuple[ControlAction, ...]:
        actions: list[ControlAction] = []
        retuned = False

        # Rule 1: the machine changed under us.
        current = self.autotuner.fingerprint()
        if current != self._fingerprint:
            self._fingerprint = current
            self.autotuner.clear()
            self.autotuner.calibrate()
            actions.append(ControlAction(
                kind="recalibrate",
                reason="host fingerprint changed; cached crossovers "
                       "measured on a different machine shape",
                details={"cpu_count": current.cpu_count},
            ))
            retuned = True

        # Rule 2: dispatch overhead out of budget → widen the serial lane.
        clause = report.clause("max_dispatches_per_call")
        if clause is not None and clause.status == FAIL:
            cutover = self.autotuner.thresholds().serial_cutover
            if cutover < MAX_SERIAL_CUTOVER:
                new = min(max(cutover, 1) * 2, MAX_SERIAL_CUTOVER)
                self.autotuner.seed(serial_cutover=new)
                actions.append(ControlAction(
                    kind="seed",
                    reason="dispatches per call above SLO; rerouting more "
                           "small calls to the serial path",
                    details={"serial_cutover": new},
                ))
                retuned = True

        # Rule 3: unexplained tail latency → re-measure the crossovers.
        clause = report.clause("p99_ns_per_elem")
        if clause is not None and clause.status == FAIL and not retuned:
            self.autotuner.calibrate()
            actions.append(ControlAction(
                kind="recalibrate",
                reason="p99 latency above SLO with no structural cause; "
                       "re-probing host crossovers",
            ))
            retuned = True

        # Advisory: recommend a worker count from the balance gauges.
        imbalance = report.clause("max_time_imbalance")
        if imbalance is not None and imbalance.status == FAIL:
            workers = int(self.registry.value("balance.workers", 0))
            if workers > 1:
                actions.append(ControlAction(
                    kind="recommend-p",
                    reason="per-worker time imbalance above SLO; "
                           "fewer workers would waste less of the barrier",
                    details={"p": max(1, workers // 2)},
                ))

        return tuple(actions)

    def _publish(
        self,
        report: SLOReport,
        events: tuple[DegradationEvent, ...],
        actions: tuple[ControlAction, ...],
        recoveries: tuple[RecoveryEvent, ...] = (),
    ) -> None:
        reg = self.registry
        reg.counter("control.steps").inc()
        if events:
            reg.counter("control.degradations").inc(len(events))
        if recoveries:
            reg.counter("control.recoveries").inc(len(recoveries))
        retunes = sum(1 for a in actions if a.kind in ("seed", "recalibrate"))
        if retunes:
            reg.counter("control.retunes").inc(retunes)
        failures = len(report.failed)
        if failures:
            reg.counter("control.slo_failures").inc(failures)
        reg.gauge("control.last_status").set(STATUS_CODE[report.status])
        for act in actions:
            if act.kind == "recommend-p":
                reg.gauge("control.recommended_p").set(float(act.details["p"]))

    # -- the watch loop ------------------------------------------------

    def watch(
        self,
        workload: Callable[["MetricsRegistry"], Any],
        *,
        cycles: int = 3,
        interval_s: float = 0.0,
    ):
        """Generator driving ``cycles`` observe→evaluate→act rounds.

        ``workload`` feeds the registry each round (the CLI passes the
        canary; a service would pass a no-op and let live traffic
        accumulate).  Yields each round's :class:`ControlDecision` so
        the caller renders progress; sleeps ``interval_s`` between
        rounds (never after the last).
        """
        for cycle in range(cycles):
            span = (
                self.tracer.span("control.cycle", cycle=cycle)
                if self.tracer is not None else NULL_SPAN
            )
            with span:
                workload(self.registry)
                decision = self.step()
            yield decision
            if interval_s > 0 and cycle + 1 < cycles:
                time.sleep(interval_s)
