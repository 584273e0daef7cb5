"""``python -m repro doctor`` — one-shot operability verdict.

The doctor answers "is this host serving the paper's promise?" in one
command: probe the host and the degradation chain, replay the canary
workload through the tuned path, judge the resulting metrics window
against the SLO, and print PASS/WARN/FAIL per clause with the
offending metric.  The whole run is wrapped in trace spans
(``doctor.run`` / ``doctor.probe`` / ``doctor.canary``), so the
doctor's own decisions are as observable as the code it judges.

The verdict is structured (:meth:`DoctorReport.to_dict`, schema
``repro-doctor/1``) so CI can gate on it and archive it next to the
bench artifact — see the ``doctor-smoke`` job and
``docs/operations.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..execution.autotune import Autotuner, autotune_enabled, get_autotuner
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from .slo import DEFAULT_SLO, FAIL, SLO, SLOReport, evaluate_slo

__all__ = [
    "DoctorReport",
    "run_doctor",
    "render_doctor",
    "write_doctor_json",
    "load_metrics_snapshot",
]

DOCTOR_SCHEMA = "repro-doctor/1"


@dataclass
class DoctorReport:
    """Everything one doctor run measured and concluded."""

    slo: SLO
    report: SLOReport
    host: dict[str, Any] = field(default_factory=dict)
    probes: dict[str, str] = field(default_factory=dict)
    autotune: dict[str, Any] = field(default_factory=dict)
    canary_notes: list[str] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.report.status

    @property
    def ok(self) -> bool:
        """FAIL-free (WARN does not gate — shared hosts are noisy)."""
        return self.status != FAIL

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": DOCTOR_SCHEMA,
            "status": self.status,
            "slo": self.slo.to_dict(),
            "verdict": self.report.to_dict(),
            "host": self.host,
            "probes": self.probes,
            "autotune": self.autotune,
            "canary": self.canary_notes,
            "metrics": self.metrics,
        }


def _host_facts(tuner: Autotuner) -> dict[str, Any]:
    facts: dict[str, Any] = tuner.fingerprint().to_dict()
    facts["cpu_count"] = os.cpu_count() or 1
    try:
        one, five, fifteen = os.getloadavg()
        facts["load_avg_1m"] = round(one, 3)
        facts["load_avg_5m"] = round(five, 3)
    except (OSError, AttributeError):  # pragma: no cover - platform gap
        facts["load_avg_1m"] = None
    return facts


def load_metrics_snapshot(path: str) -> dict[str, Any]:
    """Read a metrics window from ``path`` for ``--metrics-from``.

    Accepts either a raw :meth:`~repro.obs.MetricsRegistry.snapshot`
    dict, or a wrapper object carrying one under a ``"metrics"`` key
    (the shape both the doctor verdict and the serve smoke harness
    write), so artifacts can be fed straight back in.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object snapshot")
    inner = doc.get("metrics")
    if isinstance(inner, dict) and inner:
        return inner
    return doc


def run_doctor(
    slo: SLO | None = None,
    *,
    quick: bool = False,
    seed: int = 7,
    p: int | None = None,
    backend: str = "threads",
    autotuner: Autotuner | None = None,
    metrics_from: str | None = None,
) -> DoctorReport:
    """Probe the host, replay the canary, judge the SLO.

    ``quick`` shrinks the canary and skips the (fork-heavy) process
    backend probe; its clause verdicts are then computed from whatever
    was recorded — absent metrics SKIP rather than FAIL, so a quick
    verdict never lies about something it did not measure.

    ``metrics_from`` judges a *persisted* metrics window (a snapshot
    JSON, e.g. captured off a live server's ``metrics`` op) instead of
    replaying the canary — the live-traffic mode the serve front door
    and its smoke harness use.  Host facts and probes still run.
    """
    from ..resilience.degrade import probe_backend
    from ..workloads.canary import run_canary

    slo = slo or DEFAULT_SLO
    tuner = autotuner or get_autotuner()
    tracer = Tracer()
    registry = MetricsRegistry()

    with tracer.span("doctor.run", quick=quick):
        with tracer.span("doctor.probe"):
            host = _host_facts(tuner)
            probes: dict[str, str] = {}
            for name in ("threads",) if quick else ("threads", "processes"):
                defect = probe_backend(name)
                probes[name] = "ok" if defect is None else defect
            th = tuner.thresholds()  # may probe + write the cache
            autotune_facts: dict[str, Any] = {
                "enabled": autotune_enabled(),
                "cache_path": str(tuner.cache_path),
                "cache_state": tuner.cache_state(),
                "thresholds": {
                    "serial_cutover": th.serial_cutover,
                    "source": th.source,
                },
            }

        if metrics_from is not None:
            snapshot = load_metrics_snapshot(metrics_from)
            notes = [f"metrics window loaded from {metrics_from} "
                     "(canary skipped)"]
        else:
            with tracer.span("doctor.canary"):
                canary = run_canary(
                    registry, quick=quick, seed=seed, p=p, backend=backend
                )
            snapshot = registry.snapshot()
            notes = canary.notes

        report = evaluate_slo(slo, snapshot)

    return DoctorReport(
        slo=slo,
        report=report,
        host=host,
        probes=probes,
        autotune=autotune_facts,
        canary_notes=notes,
        metrics=snapshot,
    )


def render_doctor(doc: DoctorReport) -> str:
    """The human verdict: host facts, probes, then per-clause lines."""
    lines = [f"repro doctor — overall: {doc.status}", ""]
    lines.append(
        f"host: {doc.host.get('cpu_count')} cpus, "
        f"python {doc.host.get('python')}, "
        f"load {doc.host.get('load_avg_1m')}"
    )
    for name, state in doc.probes.items():
        lines.append(f"backend {name}: {state}")
    at = doc.autotune
    lines.append(
        f"autotune: enabled={at.get('enabled')} "
        f"cache={at.get('cache_state')} ({at.get('cache_path')})"
    )
    from ..execution.tuning import NEVER

    def _cut(v: Any) -> Any:
        return "never" if v == NEVER else v

    th = at.get("thresholds", {})
    lines.append(
        f"  thresholds: serial<{_cut(th.get('serial_cutover'))} "
        f"[{th.get('source')}]"
    )
    for note in doc.canary_notes:
        lines.append(f"# {note}")
    lines.append("")
    lines.append(doc.report.describe())
    return "\n".join(lines)


def write_doctor_json(doc: DoctorReport, path: str) -> None:
    """Persist the structured verdict (CI artifact next to the bench)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc.to_dict(), fh, indent=2)
        fh.write("\n")
