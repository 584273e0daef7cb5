"""Pure tuning policy: probe samples in, thresholds out.

This module is the *policy* half of the autotuner split.  Everything
here is a pure function of its inputs — no clocks, no filesystem, no
environment reads except the explicit ``environ`` parameters — so the
cold-start path (:class:`repro.execution.autotune.Autotuner`) and the
continuous controller (:class:`repro.control.Controller`) share exactly
one calibration rule and tests can drive it with synthetic samples.

The split:

:class:`ProbeSuite`
    Raw timing observations — what the IO layer measures.
:func:`derive_thresholds`
    ``ProbeSuite`` → :class:`Thresholds`.  The serial cutover
    (:func:`serial_cutover_model`) is the one measured decision; every
    entry point consults it per call through
    :meth:`~repro.execution.autotune.Autotuner.choose_backend`.
:class:`HostFingerprint` / :class:`TuningState`
    What the cache file stores, and when it is stale: thresholds are
    *host properties*, so a calibration made on a different host shape
    (cpu count, python build, ``REPRO_*`` overrides) must not be
    reused.  Load average is deliberately **not** part of the equality
    check — it changes by the second; the controller watches it live
    instead (see :mod:`repro.control`).
"""

from __future__ import annotations

import math
import os
import platform
from dataclasses import dataclass

__all__ = [
    "NEVER",
    "TUNING_POLICY",
    "Thresholds",
    "ProbeSuite",
    "HostFingerprint",
    "TuningState",
    "derive_thresholds",
    "serial_cutover_model",
    "tuning_env",
]

#: Sentinel threshold meaning "this crossover is never reached".
NEVER = 1 << 62

#: The modelled parallel time must beat serial by this factor at the
#: serial crossover (hysteresis against timer noise).
SERIAL_MARGIN = 0.95
#: Version of the probes and rules above, part of every
#: :class:`HostFingerprint`: a calibration made by other probes or
#: rules (version 1: the rank-placement kernel and the first-crossing
#: serial ladder) reads stale and reruns.
TUNING_POLICY = 2


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Calibrated crossover points, all in total output elements ``N``.

    ``serial_cutover``
        Below this N, rerun pooled-backend requests on the serial
        backend — fork/join overhead exceeds the merge itself.  The
        only threshold that is measured and the only one read.
    ``process_cutover``, ``tiny_kernel_cutover``
        Inert: no probe sets them and no decision reads them.  They
        remain so that callers which copy every threshold by name into
        :meth:`~repro.execution.autotune.Autotuner.seed` keep working.
    """

    serial_cutover: int = 4096
    process_cutover: int = NEVER
    tiny_kernel_cutover: int = 16
    calibrated: bool = False
    source: str = "default"


@dataclass(frozen=True, slots=True)
class ProbeSuite:
    """Raw timing observations from one calibration run.

    ``serial_vs_parallel``
        ``(n, t_serial_s, t_parallel_s)`` rows, ascending ``n``: every
        row bounds the fork/join overhead, the largest prices the
        serial cost per element (see :func:`serial_cutover_model`).
    ``p``
        Worker count of the parallel probes.
    """

    serial_vs_parallel: tuple[tuple[int, float, float], ...] = ()
    p: int = 1


def serial_cutover_model(
    rows: tuple[tuple[int, float, float], ...], p: int
) -> int:
    """Serial cutover from a cost model of a ``p``-way merge.

    A serial call of N elements costs ``c * N``, with ``c`` the serial
    time per element of the largest row; a parallel call costs
    ``O + c * N / p``.  ``O``, the fixed fork/join cost, is the largest
    ``t_parallel - c * n / p`` over the rows, so every measured parallel
    time counts: a parallel call that lost at a probed size makes ``O``
    large enough that the cutover lies above that size, and one that won
    puts it at or below.  (A loss at the largest probe costs a fixed
    time, not a time per element: on a host whose idle worker CPU takes
    milliseconds to wake, 2-way calls lose at 2^18 elements and scale
    1.6-2x at 2^23 and up.)  The cutover is the smallest power of two N
    with ``O + c * N / p <= SERIAL_MARGIN * c * N``, never below the
    smallest probed size, where the model is no longer fitted;
    :data:`NEVER` when ``p`` is 1 or nothing was probed.
    """
    gain = SERIAL_MARGIN - 1 / p
    if not rows or gain <= 0:
        return NEVER
    n_large, t_serial_large, _ = rows[-1]
    per_elem = t_serial_large / n_large
    if not per_elem > 0:
        return NEVER
    overhead = max(t_par - per_elem * n / p for n, _, t_par in rows)
    need = max(rows[0][0], overhead / (per_elem * gain))
    if need >= NEVER:
        return NEVER
    return 1 << (math.ceil(need) - 1).bit_length()


def derive_thresholds(suite: ProbeSuite) -> Thresholds:
    """Crossover rules, as a pure function of measured timings: the
    serial cutover from :func:`serial_cutover_model`."""
    return Thresholds(
        serial_cutover=serial_cutover_model(suite.serial_vs_parallel, suite.p),
        calibrated=True,
        source="probe",
    )


# ---------------------------------------------------------------------------
# Host fingerprinting (cache-staleness policy)
# ---------------------------------------------------------------------------

def tuning_env(environ: dict[str, str] | None = None) -> tuple[tuple[str, str], ...]:
    """The ``REPRO_*`` overrides that shape tuning decisions, sorted.

    A calibration made under ``REPRO_AUTOTUNE=0`` or a custom cache
    path is a different experiment; changing any ``REPRO_*`` variable
    therefore invalidates the cache.
    """
    env = os.environ if environ is None else environ
    return tuple(sorted(
        (k, v) for k, v in env.items() if k.startswith("REPRO_")
    ))


@dataclass(frozen=True, slots=True)
class HostFingerprint:
    """The stable host shape a calibration is valid for.

    Equality of fingerprints is the cache-reuse criterion: same cpu
    count, same python build, same machine architecture, same
    ``REPRO_*`` overrides, same :data:`TUNING_POLICY`.  (Load average is
    a live signal, not part of identity — see the module docstring.)
    """

    cpu_count: int
    python: str
    machine: str
    env: tuple[tuple[str, str], ...] = ()
    policy: int = TUNING_POLICY

    @classmethod
    def current(cls, environ: dict[str, str] | None = None) -> "HostFingerprint":
        build, _date = platform.python_build()
        return cls(
            cpu_count=os.cpu_count() or 1,
            python=f"{platform.python_version()} {build}",
            machine=platform.machine() or "unknown",
            env=tuning_env(environ),
        )

    def to_dict(self) -> dict:
        return {
            "cpu_count": self.cpu_count,
            "python": self.python,
            "machine": self.machine,
            "env": {k: v for k, v in self.env},
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "HostFingerprint":
        return cls(
            cpu_count=int(raw["cpu_count"]),
            python=str(raw["python"]),
            machine=str(raw["machine"]),
            env=tuple(sorted(
                (str(k), str(v)) for k, v in dict(raw.get("env", {})).items()
            )),
            policy=int(raw.get("policy", 1)),
        )


@dataclass(frozen=True, slots=True)
class TuningState:
    """What the autotune cache persists: thresholds + their provenance."""

    thresholds: Thresholds
    fingerprint: HostFingerprint | None = None

    def valid_for(self, fp: HostFingerprint) -> bool:
        """Whether this calibration may be reused on host ``fp``.

        Legacy payloads without a fingerprint are treated as stale —
        they may have been calibrated on any host shape.
        """
        return self.fingerprint is not None and self.fingerprint == fp

    def to_payload(self) -> dict:
        payload = {
            "serial_cutover": self.thresholds.serial_cutover,
            "calibrated": self.thresholds.calibrated,
            "source": "probe",
        }
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint.to_dict()
        return payload

    @classmethod
    def from_payload(cls, raw: dict) -> "TuningState":
        """Parse a cache payload; raises ``KeyError``/``ValueError``/
        ``TypeError`` on malformed documents (the IO layer treats any
        of those as "no cache").  Other keys are ignored, such as the
        two unmeasured thresholds that older caches also stored."""
        th = Thresholds(
            serial_cutover=int(raw["serial_cutover"]),
            calibrated=bool(raw.get("calibrated", True)),
            source="cache",
        )
        fp = None
        if isinstance(raw.get("fingerprint"), dict):
            fp = HostFingerprint.from_dict(raw["fingerprint"])
        return cls(thresholds=th, fingerprint=fp)
