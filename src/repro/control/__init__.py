"""SLO verdicts: the doctor judges a metrics window, nothing retunes.

Merge Path partitions statically — Theorem 14 gives every worker an
equal share before any work starts — so nothing here needs a runtime
feedback loop.  The one measured decision, the serial cutover, is a
host property the autotuner probes once and caches under a host
fingerprint (:mod:`repro.execution.autotune`).  This package only
judges:

* :mod:`~repro.control.slo` — declarative :class:`SLO` bounds over
  the unified metrics registry, and :func:`evaluate_slo` producing
  per-clause PASS/WARN/FAIL verdicts naming the offending metric.
* :mod:`~repro.control.doctor` — ``python -m repro doctor``: one-shot
  host probe + canary replay (or a persisted window) + SLO verdict,
  structured for CI.

CLI front door::

    python -m repro doctor [--quick] [--json verdict.json] [--slo slo.json]
"""

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
    "DoctorReport",
    "run_doctor",
    "render_doctor",
    "write_doctor_json",
]
