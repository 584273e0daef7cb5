"""Adaptive crossover calibration for the merge/sort hot paths (IO layer).

The paper's speedups assume p hardware threads and N large enough that
partitioning cost (p·log N probes) vanishes against merge work (N/p per
core).  On a real host neither is guaranteed: below some N the serial
kernel beats any fork/join.  That crossover is a *host property*, so we
measure it once per host with quick timing probes, persist it, and
consult it on every call made with a pooled backend name (``"threads"``
or ``"processes"``), which it reroutes to ``"serial"`` below the
crossover.  The crossover is not searched for on a ladder of sizes:
serial and parallel probes at 2^12 and 2^18 elements price a fork/join
overhead and a per-element cost, and the model places the crossover
(see :func:`repro.execution.tuning.serial_cutover_model`).  It is the
only decision the tuner makes: every segment runs the one linear kernel
(:func:`repro.core.sequential.merge_into`), and a requested pooled
backend is never swapped for the other one.

This module is the *IO* half of the tuner: timing probes, cache
persistence, the process-wide singleton, and the one routing comparison
(:meth:`Autotuner.choose_backend`).  How probe timings become thresholds
and when a cached calibration is stale live in the pure policy module
:mod:`repro.execution.tuning`, which the continuous controller
(:mod:`repro.control`) drives through the same :meth:`Autotuner.seed`
/ :meth:`Autotuner.calibrate` API used here for cold start.

Policy knobs (all overridable by environment):

``REPRO_AUTOTUNE=0``
    Kill switch — no calibration, no rerouting; requested backends are
    used verbatim.
``REPRO_AUTOTUNE_CACHE=/path/file.json``
    Where calibrated thresholds persist (default
    ``~/.cache/repro/autotune-<host>-py<maj>.<min>.json``).

The cache payload carries a :class:`~repro.execution.tuning.HostFingerprint`
(cpu count, python build, machine, ``REPRO_*`` overrides, tuning-policy
version); a payload whose fingerprint does not match the current host
is ignored and the probe suite reruns, so moving the cache file between
machines — or changing the core count of this one, or upgrading to
different probes and rules — forces recalibration.

The tuner only ever *reroutes, never changes semantics*: results are
bit-identical whichever backend runs, because every backend executes
the same disjoint-slice tasks (Theorem 14).  Rerouting applies only when the
caller passed a backend *name* (an explicit ``Backend`` instance is a
deliberate choice) and only for untraced calls (a traced run is a
measurement of the requested configuration, not a request for speed).
"""

from __future__ import annotations

import os
import platform
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..durable import atomic_write_json, load_json
from .tuning import (
    NEVER,
    HostFingerprint,
    ProbeSuite,
    Thresholds,
    TuningState,
    derive_thresholds,
)

__all__ = [
    "Thresholds",
    "Autotuner",
    "get_autotuner",
    "clear_cache",
    "autotune_enabled",
    "NEVER",
]


def autotune_enabled() -> bool:
    """Whether adaptive rerouting is on (``REPRO_AUTOTUNE`` != 0)."""
    return os.environ.get("REPRO_AUTOTUNE", "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


def _default_cache_path() -> Path:
    override = os.environ.get("REPRO_AUTOTUNE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    host = platform.node() or "unknown-host"
    tag = f"py{sys.version_info.major}.{sys.version_info.minor}"
    return Path(base) / "repro" / f"autotune-{host}-{tag}.json"


def _best_time(fn: Callable[[], object]) -> float:
    """Min-of-3 wall time; min rejects scheduler noise upward."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two sorted halves that interleave at random, like typical merge
    inputs: a strict alternation is the branch predictor's best case,
    and the kernel merges it at half the per-element cost of random
    input, which would double the cost model's cutover.  Cumulative sums
    of small random steps are sorted without a sort; the seed is fixed
    so probes repeat."""
    rng = np.random.default_rng(n)
    steps = rng.integers(0, 4, size=(2, n // 2), dtype=np.int64)
    a, b = np.cumsum(steps, axis=1)
    return a, b


class Autotuner:
    """Lazily calibrated, persisted crossover thresholds for one host.

    ``thresholds()`` is the only consultation point: the first call
    loads the per-host cache (rejecting payloads whose host fingerprint
    no longer matches) or runs the probe suite (a few tens
    of milliseconds, once per host, best-effort — any probe failure falls
    back to conservative defaults and does not propagate).

    ``calibrate()`` and ``seed()`` are the *control surface*: the
    :class:`repro.control.Controller` drives them to re-tune a live
    process when the host changes or an SLO clause fails, instead of
    duplicating the one-shot cold-start probe.
    """

    def __init__(self, cache_path: Path | None = None) -> None:
        self._cache_path = cache_path
        self._lock = threading.Lock()
        self._thresholds: Thresholds | None = None
        #: Times a cache read found unparseable bytes (post-mortem
        #: evidence a writer skipped the atomic path or the disk lied).
        self.corrupt_loads = 0
        #: Optional :class:`repro.obs.MetricsRegistry`; when set, corrupt
        #: cache reads count into ``autotune.cache_corrupt`` there.
        self.metrics = None

    @property
    def cache_path(self) -> Path:
        return self._cache_path or _default_cache_path()

    def fingerprint(self) -> HostFingerprint:
        """The current host shape calibrations are keyed to."""
        return HostFingerprint.current()

    # -- persistence ---------------------------------------------------

    def _load(self) -> Thresholds | None:
        """Cached thresholds, or ``None`` when absent/corrupt/stale.

        A corrupt payload (truncated write, garbage bytes) is a cache
        miss that *also* bumps :attr:`corrupt_loads` and the
        ``autotune.cache_corrupt`` counter — recalibrating silently
        would hide a broken writer.
        """
        raw, state_str = load_json(self.cache_path)
        if state_str == "corrupt":
            self._note_corrupt()
            return None
        if state_str != "ok":
            return None
        try:
            state = TuningState.from_payload(raw)
        except (ValueError, KeyError, TypeError, AttributeError):
            self._note_corrupt()
            return None
        if not state.valid_for(self.fingerprint()):
            return None
        return replace(state.thresholds, source=f"cache:{self.cache_path}")

    def _note_corrupt(self) -> None:
        self.corrupt_loads += 1
        registry = self.metrics
        if registry is not None:
            registry.counter("autotune.cache_corrupt").inc()

    def cache_state(self) -> str:
        """``"absent"`` | ``"corrupt"`` | ``"stale"`` | ``"fresh"`` —
        for diagnostics."""
        _, state_str = load_json(self.cache_path)
        if state_str != "ok":
            return "absent" if state_str == "absent" else "corrupt"
        return "fresh" if self._load() is not None else "stale"

    def _store(self, th: Thresholds) -> None:
        try:
            payload = TuningState(
                thresholds=th, fingerprint=self.fingerprint()
            ).to_payload()
            atomic_write_json(self.cache_path, payload)
        except OSError:
            pass  # persistence is an optimization, never a requirement

    def clear(self) -> None:
        """Forget calibration in memory and on disk."""
        with self._lock:
            self._thresholds = None
            try:
                self.cache_path.unlink()
            except OSError:
                pass

    def forget(self) -> None:
        """Drop in-memory thresholds only; the disk cache survives.

        Test isolation wants seeded state gone between tests without
        destroying a developer's (or CI's) calibrated cache the way
        :meth:`clear` would; the next :meth:`thresholds` call simply
        reloads from disk or re-probes.
        """
        with self._lock:
            self._thresholds = None

    # -- calibration ---------------------------------------------------

    def calibrate(self) -> Thresholds:
        """Run the probe suite now and persist the result."""
        th = derive_thresholds(self.probe_suite())
        self._store(th)
        with self._lock:
            self._thresholds = th
        return th

    def thresholds(self) -> Thresholds:
        """Calibrated thresholds (fresh cache → probed → defaults)."""
        with self._lock:
            if self._thresholds is not None:
                return self._thresholds
        loaded = self._load()
        if loaded is not None:
            with self._lock:
                self._thresholds = loaded
            return loaded
        try:
            th = derive_thresholds(self.probe_suite())
            self._store(th)
        except Exception:  # noqa: BLE001 - probes are best-effort
            th = Thresholds(source="probe-failed")
        with self._lock:
            self._thresholds = th
        return th

    def probe_suite(self) -> ProbeSuite:
        """Time the crossover experiments; thresholds come from
        :func:`repro.execution.tuning.derive_thresholds` (pure)."""
        from ..core.parallel_merge import parallel_merge
        from ..core.sequential import merge_vectorized
        from .pool import shared_backend

        p = min(4, os.cpu_count() or 1)

        # Serial merge vs. pooled thread merge, at a size where
        # fork/join dominates and one where the kernel does.
        serial_vs_parallel: list[tuple[int, float, float]] = []
        if p > 1:
            be = shared_backend("threads", p)
            be.run_tasks([lambda: None])  # warm the pool out of the timing
            for exp in (12, 18):
                n = 1 << exp
                a, b = _probe_arrays(n)
                t_serial = _best_time(
                    lambda: merge_vectorized(a, b, check=False))
                t_par = _best_time(
                    lambda: parallel_merge(a, b, p, backend=be, check=False))
                serial_vs_parallel.append((n, t_serial, t_par))

        return ProbeSuite(serial_vs_parallel=tuple(serial_vs_parallel), p=p)

    # -- consultation --------------------------------------------------

    def choose_backend(self, name: str, n: int) -> str:
        """Best backend *name* for an N-element merge requested as
        ``name``: a pooled name (``"threads"``, ``"processes"``) becomes
        ``"serial"`` below the serial cutover; every other request is
        returned unchanged."""
        if not autotune_enabled() or name not in ("threads", "processes"):
            return name
        return "serial" if n < self.thresholds().serial_cutover else name

    def seed(self, **overrides: int) -> None:
        """Pin thresholds without probing (tests, controller nudges)."""
        with self._lock:
            base = self._thresholds or Thresholds()
            self._thresholds = replace(
                base, **overrides, calibrated=True, source="seeded"
            )


_GLOBAL = Autotuner()


def get_autotuner() -> Autotuner:
    """The process-wide tuner consulted by the core entry points."""
    return _GLOBAL


def clear_cache() -> None:
    """Drop the process-wide tuner's calibration (memory + disk)."""
    _GLOBAL.clear()
