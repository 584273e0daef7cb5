"""Fault-tolerant execution layer for Merge Path backends.

The paper's structural guarantee makes this layer cheap: the ``p``
merge tasks produced by Algorithm 1 are independent, idempotent, and
write disjoint output slices (Theorem 14), so a supervisor may retry a
failed task, abandon a hung attempt, speculatively duplicate a
straggler, or replay a whole batch on a different backend — all without
locks or coordination, and without ever corrupting the merged output.

Components
----------
:class:`RetryPolicy`
    Frozen knobs: retries, per-attempt timeout, seeded-jitter
    exponential backoff, speculation thresholds.
:class:`ResilientBackend`
    Wraps any backend with per-task supervision, keeps the record of
    its latest batch (:class:`BatchTelemetry`) and counts every batch
    into the ``resilience.*`` counters of its ``metrics`` registry.
:class:`FaultInjector` / :class:`FaultyBackend`
    Seeded, deterministic chaos: injected errors, delays, hangs, and
    worker deaths for testing the layer (and the conformance chaos
    tier).
:class:`DegradingBackend`
    Graceful degradation along ``threads → serial`` (the external
    sort's chain puts ``processes`` first)
    with :class:`DegradationWarning` diagnostics; counts
    ``resilience.degradations`` / ``.recoveries`` into its registry.
:func:`probe_backend`
    One-shot health check of a named backend (``doctor`` uses it).
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, RecoveryPolicy
from .degrade import (
    DEGRADATION_CHAIN,
    DegradationWarning,
    DegradingBackend,
    probe_backend,
)
from .netchaos import ChaosProxy, ChaosProxyThread, ChaosSpec
from .faults import (
    FaultDecision,
    FaultInjector,
    FaultyBackend,
    InjectedFault,
    SimulatedWorkerDeath,
)
from .policy import RetryPolicy
from .resilient import ResilientBackend, innermost_backend
from .telemetry import BatchTelemetry, TaskTelemetry

__all__ = [
    "RetryPolicy",
    "ResilientBackend",
    "innermost_backend",
    "FaultInjector",
    "FaultyBackend",
    "FaultDecision",
    "InjectedFault",
    "SimulatedWorkerDeath",
    "TaskTelemetry",
    "BatchTelemetry",
    "DEGRADATION_CHAIN",
    "DegradationWarning",
    "probe_backend",
    "DegradingBackend",
    "CircuitBreaker",
    "RecoveryPolicy",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ChaosSpec",
    "ChaosProxy",
    "ChaosProxyThread",
]
