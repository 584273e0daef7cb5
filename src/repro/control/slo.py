"""Declarative SLOs over the unified metrics registry.

An :class:`SLO` is a small set of bounds on metrics every subsystem
already emits into one :class:`~repro.obs.MetricsRegistry` — latency
quantiles from the canary histograms, the Theorem 14 work-spread
gauge, the batched engine's dispatch accounting, the resilience
layer's retry counters.  :func:`evaluate_slo` turns one registry
snapshot (or a :meth:`~repro.obs.MetricsRegistry.delta` window) into a
per-clause PASS/WARN/FAIL report naming the offending metric, which is
exactly what ``python -m repro doctor`` prints.

Clause semantics: every bound is a *maximum*.  A clause whose metric
was never recorded is ``SKIP`` (it does not gate — a quick doctor run
that skipped the process probe must not fail the process clause); a
clause at or past its limit is ``FAIL``; within ``warn_fraction`` of
the limit it is ``WARN``.  The work-spread clause is special: the
paper's Theorem 14 *guarantees* spread <= 1, so its default limit is 1
and exceeding it means a partitioning bug, not a slow host.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any

__all__ = [
    "SLO",
    "ClauseVerdict",
    "SLOReport",
    "evaluate_slo",
    "DEFAULT_SLO",
]

PASS, WARN, FAIL, SKIP = "PASS", "WARN", "FAIL", "SKIP"

#: Verdict severity order (worst wins for the report status).
_SEVERITY = {PASS: 0, SKIP: 0, WARN: 1, FAIL: 2}


@dataclass(frozen=True, slots=True)
class SLO:
    """Bounds on one control window.  ``None`` disables a clause.

    ``p50_ns_per_elem`` / ``p99_ns_per_elem``
        Canary latency quantiles (``slo.ns_per_elem`` histogram).
    ``max_work_spread``
        Theorem 14 witness (``balance.work_spread`` gauge); > 1 means
        the partitioner is broken, never merely slow.
    ``max_dispatches_per_call``
        Batched-engine ceiling (``exec.dispatches_per_call`` gauge): a
        merge is one dispatch, a sort ``O(log p)`` — a blowup here
        means the engine stopped fusing phases.
    ``max_time_imbalance``
        Per-worker busy-time max/mean from the traced canary merge
        (``balance.time_imbalance`` gauge).
    ``retry_budget``
        Max ``resilience.retries`` in the window — a persistently
        retrying backend is degraded capacity even when results are
        correct.
    ``max_worker_deaths``
        Max ``resilience.worker_deaths`` in the window.
    ``warn_fraction``
        A measurement at or past ``limit * warn_fraction`` (but under
        the limit) gets WARN instead of PASS.  The warn band applies
        only to the *continuous* clauses (latency quantiles, time
        imbalance); the structural clauses (work spread, dispatches,
        retries, deaths) sit at their limit in normal operation — a
        work spread of exactly 1 is Theorem 14 working as proved — so
        they verdict PASS/FAIL only.
    """

    name: str = "default"
    p50_ns_per_elem: float | None = 250.0
    p99_ns_per_elem: float | None = 1200.0
    max_work_spread: float | None = 1.0
    max_dispatches_per_call: float | None = 64.0
    max_time_imbalance: float | None = None
    retry_budget: int | None = 0
    max_worker_deaths: int | None = 0
    warn_fraction: float = 0.8

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SLO":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown SLO field(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str) -> "SLO":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


#: The SLO used when the caller provides none.  Latency bounds are
#: deliberately loose (pure-Python kernels on shared CI runners); the
#: structural clauses (work spread, dispatch count, retries, deaths)
#: are the tight ones — they catch bugs, not slow hardware.
DEFAULT_SLO = SLO()


@dataclass(frozen=True, slots=True)
class ClauseVerdict:
    """One clause's outcome: the bound, what was observed, and where."""

    clause: str
    status: str
    metric: str
    observed: float | None
    limit: float

    def describe(self) -> str:
        if self.observed is None:
            return (
                f"{self.status:<4} {self.clause}: metric {self.metric!r} "
                "not recorded"
            )
        return (
            f"{self.status:<4} {self.clause}: observed {self.observed:.3f} "
            f"vs limit {self.limit:.3f} ({self.metric})"
        )


@dataclass(frozen=True, slots=True)
class SLOReport:
    """All clause verdicts of one evaluation; ``status`` is the worst."""

    slo_name: str
    clauses: tuple[ClauseVerdict, ...]

    @property
    def status(self) -> str:
        worst = PASS
        for c in self.clauses:
            if _SEVERITY[c.status] > _SEVERITY[worst]:
                worst = c.status
        return worst

    @property
    def failed(self) -> tuple[ClauseVerdict, ...]:
        return tuple(c for c in self.clauses if c.status == FAIL)

    def clause(self, name: str) -> ClauseVerdict | None:
        for c in self.clauses:
            if c.clause == name:
                return c
        return None

    def describe(self) -> str:
        lines = [f"SLO {self.slo_name!r}: {self.status}"]
        lines.extend(f"  {c.describe()}" for c in self.clauses)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo_name,
            "status": self.status,
            "clauses": [asdict(c) for c in self.clauses],
        }


def _lookup(snapshot: dict[str, Any], metric: str, key: str | None) -> float | None:
    """Read ``metric`` (optionally a histogram-summary ``key``) from a
    snapshot; ``None`` when absent or never populated."""
    value = snapshot.get(metric)
    if value is None:
        return None
    if key is not None:
        if not isinstance(value, dict) or not value.get("count"):
            return None
        return float(value.get(key, 0.0))
    return float(value)


def _judge(
    observed: float | None, limit: float, warn_fraction: float | None
) -> str:
    if observed is None:
        return SKIP
    if observed > limit:
        return FAIL
    if (
        warn_fraction is not None
        and limit > 0
        and observed >= limit * warn_fraction
    ):
        return WARN
    return PASS


def evaluate_slo(slo: SLO, snapshot: dict[str, Any]) -> SLOReport:
    """Judge one metrics snapshot (or delta window) against ``slo``.

    ``snapshot`` is whatever :meth:`~repro.obs.MetricsRegistry.snapshot`
    or :meth:`~repro.obs.MetricsRegistry.delta` returned — plain dicts,
    so reports can also be computed from persisted JSON.
    """
    warn = slo.warn_fraction
    spec: list[tuple[str, float | None, str, str | None, float | None]] = [
        ("p50_ns_per_elem", slo.p50_ns_per_elem,
         "slo.ns_per_elem", "p50", warn),
        ("p99_ns_per_elem", slo.p99_ns_per_elem,
         "slo.ns_per_elem", "p99", warn),
        ("max_work_spread", slo.max_work_spread,
         "balance.work_spread", None, None),
        ("max_dispatches_per_call", slo.max_dispatches_per_call,
         "exec.dispatches_per_call", None, None),
        ("max_time_imbalance", slo.max_time_imbalance,
         "balance.time_imbalance", None, warn),
        ("retry_budget",
         float(slo.retry_budget) if slo.retry_budget is not None else None,
         "resilience.retries", None, None),
        ("max_worker_deaths",
         float(slo.max_worker_deaths)
         if slo.max_worker_deaths is not None else None,
         "resilience.worker_deaths", None, None),
    ]
    clauses = []
    for clause, limit, metric, key, warn_frac in spec:
        if limit is None:
            continue
        observed = _lookup(snapshot, metric, key)
        metric_name = f"{metric} {key}" if key else metric
        clauses.append(ClauseVerdict(
            clause=clause,
            status=_judge(observed, float(limit), warn_frac),
            metric=metric_name,
            observed=observed,
            limit=float(limit),
        ))
    return SLOReport(slo_name=slo.name, clauses=tuple(clauses))
