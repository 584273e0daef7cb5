"""Chaos tier: conformance under deterministic fault injection.

The differential oracle already proves every implementation correct on
a calm machine; the chaos tier proves the *resilient* execution path
correct on a hostile one.  It rebuilds the registry over a
:class:`ChaosBackendCache` whose backends are wrapped as::

    ResilientBackend(FaultyBackend(real backend, FaultInjector), policy)

so every task batch an injectable implementation dispatches runs under
seeded injected errors, stragglers, hangs, and (on the process pool)
real worker deaths — and must still produce oracle-identical output via
retries, timeout abandonment, and speculation.  Telemetry deltas around
each implementation's cases attribute the recovery work per verdict.

Fault decisions fire *before* the task body (see
:mod:`repro.resilience.faults`), so even non-idempotent task sets (the
in-place merge) are safe to retry: a faulted attempt never ran.
Speculation is enabled only on the thread pool, whose merge tasks are
idempotent disjoint-slice writers (Theorem 14).

Two run-level checks complete the tier:

* ``chaos-worker-death`` — a scripted SIGKILL of a process-pool worker
  mid-batch must surface as a prompt ``worker-death``
  :class:`~repro.errors.BatchError` on the bare backend (no deadlock)
  and be transparently recovered by the resilient wrapper around the
  external sort, the pool's one caller;
* ``chaos-degradation`` — a chain headed by a permanently failing
  backend must fall through to ``serial`` with a
  :class:`~repro.resilience.DegradationWarning` and still produce the
  oracle answer.
"""

from __future__ import annotations

import time
import warnings
import zlib

import numpy as np

from ..backends.base import Backend
from ..errors import BackendError, BatchError
from ..obs import MetricsRegistry
from ..resilience import (
    DegradationWarning,
    DegradingBackend,
    FaultInjector,
    FaultyBackend,
    ResilientBackend,
    RetryPolicy,
)
from .fuzzer import run_kway_case, run_merge_case, run_sort_case
from .registry import BackendCache, Implementation
from .workloads import KwayCase, MergeCase, SortCase

__all__ = ["ChaosBackendCache", "chaos_check", "chaos_run_checks"]

#: Per-impl case budget: enough dispatches to make injection certain
#: (``always_first`` guarantees one regardless), few enough to keep the
#: quick tier fast.
_MAX_CASES = 4
_MIN_ELEMENTS = 8
_MAX_ELEMENTS = 512

_TELEMETRY_KEYS = (
    "dispatches", "retries", "timeouts", "speculations", "worker_deaths"
)


def _chaos_seed(base: int, salt: str) -> int:
    """Stable per-salt seed (no Python-hash randomization)."""
    return (base << 16) ^ zlib.crc32(salt.encode())


class ChaosBackendCache(BackendCache):
    """A :class:`BackendCache` whose backends come fault-injected.

    ``get(name)`` returns the real backend wrapped in
    ``ResilientBackend(FaultyBackend(...))`` with a per-backend injector
    and recovery policy.  :meth:`arm` re-seeds the injectors and resets
    task-identity tracking per implementation, so each implementation's
    very first dispatch is guaranteed a fault (``always_first``) and
    :meth:`snapshot` deltas attribute injections and recoveries to it.
    """

    def __init__(self, seed: int = 0, max_workers: int = 4) -> None:
        super().__init__(max_workers)
        self._seed = seed
        self._wrapped: dict[str, tuple[FaultyBackend, FaultInjector,
                                       ResilientBackend]] = {}
        #: Unified metrics registry: every wrapped backend counts its
        #: recovery totals here, so the chaos verdict
        #: deltas come from the same counting path the rest of the
        #: observability layer uses.
        self.metrics = MetricsRegistry()

    def _configure(self, name: str) -> tuple[FaultInjector, RetryPolicy]:
        seed = _chaos_seed(self._seed, name)
        if name == "threads":
            # The full menu: errors, stragglers, hangs; recovery uses
            # retries, per-attempt deadlines, and speculation (safe:
            # thread tasks are idempotent disjoint-slice writers).
            injector = FaultInjector(
                seed, error_rate=0.15, delay_rate=0.2, hang_rate=0.03,
                delay_s=0.03, hang_s=1.5, always_first="error",
            )
            policy = RetryPolicy(
                max_retries=3, timeout_s=0.5, backoff_base_s=0.002,
                backoff_cap_s=0.01, seed=seed, speculate=True,
                straggler_factor=3.0, speculation_floor_s=0.05,
            )
        elif name == "processes":
            # Scripted first-dispatch worker death plus transient
            # errors; no speculation (keep the pool load bounded).
            injector = FaultInjector(
                seed, error_rate=0.1, always_first="death",
            )
            policy = RetryPolicy(
                max_retries=3, timeout_s=10.0, backoff_base_s=0.01,
                backoff_cap_s=0.05, seed=seed, speculate=False,
            )
        elif name == "serial":
            # Transient errors only; no deadlines (serial cannot hang
            # without hanging the suite) and no speculation (the
            # in-place merge tasks are not idempotent).
            injector = FaultInjector(
                seed, error_rate=0.2, always_first="error",
            )
            policy = RetryPolicy(
                max_retries=3, timeout_s=None, backoff_base_s=0.002,
                backoff_cap_s=0.01, seed=seed, speculate=False,
            )
        else:  # simulated: resilience layer only, no injection
            injector = FaultInjector(seed, armed=False)
            policy = RetryPolicy(max_retries=1, seed=seed, speculate=False)
        return injector, policy

    def get(self, name: str) -> Backend:
        entry = self._wrapped.get(name)
        if entry is None:
            real = super().get(name)
            injector, policy = self._configure(name)
            faulty = FaultyBackend(real, injector)
            resilient = ResilientBackend(faulty, policy, owns_inner=False)
            resilient.metrics = self.metrics
            entry = (faulty, injector, resilient)
            self._wrapped[name] = entry
        return entry[2]

    def arm(self, salt: str) -> None:
        """Fresh injection epoch for one implementation's cases."""
        for faulty, injector, _resilient in self._wrapped.values():
            faulty.reset()
            injector.rearm(_chaos_seed(self._seed, f"{salt}:{injector.seed}"))

    def disarm(self) -> None:
        for _faulty, injector, _resilient in self._wrapped.values():
            injector.disarm()

    def snapshot(self) -> dict[str, int]:
        """Cumulative injection + recovery counters across all backends.

        Recovery counts are read off the unified metrics registry every
        wrapped backend counts into (``resilience.*``
        counters) — the same numbers ``parallel_merge(metrics=...)``
        exposes — so there is no chaos-private counting path.
        """
        counts = {"injected": 0}
        for _faulty, injector, _resilient in self._wrapped.values():
            counts["injected"] += injector.injected
        for key in _TELEMETRY_KEYS:
            counts[key] = int(self.metrics.value(f"resilience.{key}"))
        return counts

    def close(self) -> None:
        for _faulty, _injector, resilient in self._wrapped.values():
            resilient.close()  # owns_inner=False: real backends below
        self._wrapped.clear()
        super().close()


def _select(cases, size):
    picked = []
    for case in cases:
        if _MIN_ELEMENTS <= size(case) <= _MAX_ELEMENTS:
            picked.append(case)
        if len(picked) >= _MAX_CASES:
            break
    return picked


def chaos_check(
    impl: Implementation,
    cache: ChaosBackendCache,
    mcases: list[MergeCase],
    scases: list[SortCase],
    kcases: list[KwayCase],
):
    """Run one implementation's chaos cases; returns a ``CheckResult``.

    ``impl`` must come from a registry built over ``cache`` so its
    closures dispatch through the fault-injected backends.
    """
    from .runner import CheckResult

    if not impl.injectable:
        return CheckResult(
            "chaos", "skip", "does not route tasks through the backend cache"
        )
    cache.arm(impl.name)
    before = cache.snapshot()
    ran = 0
    failure: str | None = None
    if impl.kind in ("merge", "keyed", "setop"):
        selected = [(c.name, lambda c=c: run_merge_case(impl, c))
                    for c in _select(mcases, lambda c: c.total)]
    elif impl.kind == "sort":
        selected = [(c.name, lambda c=c: run_sort_case(impl, c))
                    for c in _select(scases, lambda c: len(c.x))]
    else:  # kway
        selected = [(c.name, lambda c=c: run_kway_case(impl, c))
                    for c in _select(kcases, lambda c: c.total)]
    for case_name, run in selected:
        ran += 1
        detail = run()
        if detail is not None:
            failure = f"{case_name}: {detail}"
            break
    after = cache.snapshot()
    delta = {k: after[k] - before[k] for k in after}
    stats = (
        f"injected={delta['injected']} retries={delta['retries']} "
        f"timeouts={delta['timeouts']} speculations={delta['speculations']} "
        f"worker_deaths={delta['worker_deaths']}"
    )
    if failure is not None:
        return CheckResult(
            "chaos", "fail",
            f"under fault injection: {failure} ({stats})", cases=ran,
        )
    if ran == 0:
        return CheckResult("chaos", "skip", "no cases within size budget")
    if delta["injected"] == 0:
        return CheckResult(
            "chaos", "fail",
            "no faults were injected — the chaos tier has lost its teeth",
            cases=ran,
        )
    return CheckResult(
        "chaos", "pass", f"{stats} over {ran} case(s)", cases=ran
    )


# ----------------------------------------------------------------------
# Run-level checks
# ----------------------------------------------------------------------
def _worker_death_check(seed: int):
    """A killed pool worker must fail fast on the bare backend (running
    :func:`~repro.core.sequential.sort_chunk` tasks) and be recovered
    transparently by the resilient wrapper (running the external sort)."""
    import functools
    import os
    import tempfile

    from ..backends.processes import ProcessBackend
    from ..core.sequential import sort_chunk
    from ..external import external_sort_file
    from .runner import CheckResult

    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, 1200)
    expected = np.sort(x, kind="stable")

    # 1. Bare backend: scripted death -> prompt BatchError, no deadlock.
    injector = FaultInjector(seed, scripted={(0, 0): "death"})
    bare = FaultyBackend(ProcessBackend(max_workers=2), injector)
    t0 = time.monotonic()
    try:
        bare.run_tasks([
            functools.partial(sort_chunk, chunk)
            for chunk in np.array_split(x, 4)
        ])
    except BatchError as exc:
        detect_s = time.monotonic() - t0
        kinds = {f.kind for f in exc.failures}
        if "worker-death" not in kinds:
            return CheckResult(
                "chaos-worker-death", "fail",
                f"killed worker surfaced as {sorted(kinds)}, "
                "not 'worker-death'",
            )
    else:
        return CheckResult(
            "chaos-worker-death", "fail",
            "killed worker raised no BatchError",
        )
    finally:
        bare.close()
    if detect_s > 30.0:
        return CheckResult(
            "chaos-worker-death", "fail",
            f"death detection took {detect_s:.1f}s — effectively a deadlock",
        )

    # 2. Resilient wrapper: same scripted death, the sorted file must
    # still match the oracle and the counts must show the recovery.
    injector2 = FaultInjector(seed, scripted={(0, 0): "death"})
    resilient = ResilientBackend(
        FaultyBackend(ProcessBackend(max_workers=2), injector2),
        RetryPolicy(max_retries=2, timeout_s=10.0, backoff_base_s=0.01,
                    seed=seed, speculate=False),
    )
    registry = MetricsRegistry()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            in_path = os.path.join(tmp, "in.npy")
            np.save(in_path, x)
            final, _ = external_sort_file(
                in_path, memory_elements=300, directory=tmp,
                backend=resilient, workers=2, metrics=registry,
            )
            sorted_x = np.load(final.path)
    except BackendError as exc:
        return CheckResult(
            "chaos-worker-death", "fail",
            f"resilient wrapper failed to recover: {exc}",
        )
    finally:
        resilient.close()
    if not np.array_equal(sorted_x, expected):
        return CheckResult(
            "chaos-worker-death", "fail",
            "recovered sort output differs from the oracle",
        )
    deaths = int(registry.value("resilience.worker_deaths"))
    retries = int(registry.value("resilience.retries"))
    if deaths == 0 or retries == 0:
        return CheckResult(
            "chaos-worker-death", "fail",
            "recovery left no worker-death/retry counts",
        )
    return CheckResult(
        "chaos-worker-death", "pass",
        f"bare detection in {detect_s:.2f}s; recovered with "
        f"worker_deaths={deaths} retries={retries}", cases=2,
    )


def _degradation_check(seed: int):
    """A permanently failing level must degrade to serial with a warning
    and the oracle answer."""
    from ..backends.serial import SerialBackend
    from ..core.parallel_merge import parallel_merge
    from .runner import CheckResult

    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 1000, 200))
    b = np.sort(rng.integers(0, 1000, 200))
    expected = np.sort(np.concatenate([a, b]), kind="stable")

    doomed = FaultyBackend(
        SerialBackend(),
        FaultInjector(seed, error_rate=1.0, faulty_attempts=None),
    )
    chain = DegradingBackend(
        [doomed, "serial"],
        policy=RetryPolicy(max_retries=1, backoff_base_s=0.001, seed=seed,
                           speculate=False),
    )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            merged = parallel_merge(a, b, 4, backend=chain)
    except BackendError as exc:
        return CheckResult(
            "chaos-degradation", "fail", f"chain failed outright: {exc}"
        )
    finally:
        chain.close()
    if not np.array_equal(merged, expected):
        return CheckResult(
            "chaos-degradation", "fail",
            "degraded merge output differs from the oracle",
        )
    degradations = [
        w for w in caught if issubclass(w.category, DegradationWarning)
    ]
    if not degradations:
        return CheckResult(
            "chaos-degradation", "fail",
            "fallback happened without a DegradationWarning",
        )
    if chain.active_backend != "serial":
        return CheckResult(
            "chaos-degradation", "fail",
            f"active level is {chain.active_backend!r}, expected 'serial'",
        )
    return CheckResult(
        "chaos-degradation", "pass",
        f"fell back to serial with {len(degradations)} warning(s): "
        f"{str(degradations[0].message)[:80]}", cases=1,
    )


def chaos_run_checks(seed: int):
    """The run-level chaos checks (worker death + degradation)."""
    return (_worker_death_check(seed), _degradation_check(seed))
