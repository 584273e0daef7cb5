"""The control plane: the obs → autotune → SLO loop, closed.

The paper's Theorem 14 promises perfect load balance at any ``p`` —
but only a co-tuned (p, backend, kernel, batch-cutover) configuration
realizes it on a given host, and hosts change.  This package is the
subsystem that keeps the configuration honest at runtime:

* :mod:`~repro.control.slo` — declarative :class:`SLO` bounds over
  the unified metrics registry, and :func:`evaluate_slo` producing
  per-clause PASS/WARN/FAIL verdicts naming the offending metric.
* :mod:`~repro.control.controller` — the :class:`Controller`: consumes
  registry snapshot/delta windows and retunes through the autotuner's
  calibration API
  (:mod:`repro.execution.tuning` is the shared pure policy).
* :mod:`~repro.control.doctor` — ``python -m repro doctor``: one-shot
  host probe + canary replay + SLO verdict, structured for CI.

CLI front doors::

    python -m repro doctor [--quick] [--json verdict.json] [--slo slo.json]
    python -m repro tune --watch [--cycles N] [--interval S]
"""

from .controller import ControlAction, ControlDecision, Controller
from .doctor import DoctorReport, render_doctor, run_doctor, write_doctor_json
from .slo import (
    DEFAULT_SLO,
    SLO,
    ClauseVerdict,
    SLOReport,
    evaluate_slo,
)

__all__ = [
    "SLO",
    "DEFAULT_SLO",
    "ClauseVerdict",
    "SLOReport",
    "evaluate_slo",
    "Controller",
    "ControlAction",
    "ControlDecision",
    "DoctorReport",
    "run_doctor",
    "render_doctor",
    "write_doctor_json",
]
