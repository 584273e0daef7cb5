"""The canary workload: a fixed, fast, SLO-instrumented replay.

``python -m repro doctor`` needs a
*reference* workload whose latency profile is comparable across runs:
deterministic inputs, fixed sizes, a mix of the two hot entry points
(parallel merge and parallel merge sort).  Each timed call lands one
observation in the ``slo.ns_per_elem`` histogram (plus the per-op
``slo.merge.ns_per_elem`` / ``slo.sort.ns_per_elem`` ones) of the
caller's :class:`~repro.obs.MetricsRegistry`, so the SLO evaluator in
:mod:`repro.control` reads p50/p99 straight off the registry — the
same source of truth every other subsystem feeds.

The canary runs through the *tuned* path on purpose (string backend
names, untraced timing runs): the verdict judges the configuration the
autotuner actually routes production calls to, not a pinned one.  One
additional traced merge per run attaches the load-balance gauges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.merge_sort import parallel_merge_sort
from ..core.parallel_merge import parallel_merge
from ..obs.balance import load_balance_from_trace, record_load_balance
from ..obs.tracer import Tracer
from .generators import sorted_uniform_ints, unsorted_uniform_ints

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

__all__ = ["CanaryResult", "run_canary"]


@dataclass
class CanaryResult:
    """One canary run: per-call rows plus human-readable notes."""

    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.rows)


def _observe(
    registry: "MetricsRegistry", op: str, ns_per_elem: float
) -> None:
    registry.histogram("slo.ns_per_elem").observe(ns_per_elem)
    registry.histogram(f"slo.{op}.ns_per_elem").observe(ns_per_elem)


def run_canary(
    registry: "MetricsRegistry",
    *,
    quick: bool = False,
    seed: int = 7,
    p: int | None = None,
    backend: str = "threads",
    repeats: int = 2,
) -> CanaryResult:
    """Replay the canary workload into ``registry``.

    Deterministic in inputs (``seed``) and shape: for each size in a
    small grid, ``repeats`` timed parallel merges and one timed sort,
    each observed into the ``slo.*`` latency histograms; ``metrics=``
    is passed through so the usual ``merge.*`` / ``exec.*`` /
    ``balance.work_spread`` metrics accrue too.  A final traced merge
    records the trace-derived load-balance gauges
    (``balance.time_imbalance`` / ``balance.workers``).
    """
    import os

    if p is None:
        p = min(4, os.cpu_count() or 1)
    sizes = (1 << 12, 1 << 14) if quick else (1 << 14, 1 << 16)
    result = CanaryResult()

    for n in sizes:
        a = sorted_uniform_ints(n, seed)
        b = sorted_uniform_ints(n, seed + 1)
        x = unsorted_uniform_ints(n, seed + 2)
        for _ in range(repeats):
            t0 = time.perf_counter()
            parallel_merge(a, b, p, backend=backend, metrics=registry)
            dt = time.perf_counter() - t0
            ns = dt * 1e9 / (2 * n)
            _observe(registry, "merge", ns)
            result.rows.append(
                {"op": "parallel_merge", "n": n, "p": p, "ns_per_elem": ns}
            )
        t0 = time.perf_counter()
        parallel_merge_sort(x, p, backend=backend, metrics=registry)
        dt = time.perf_counter() - t0
        ns = dt * 1e9 / n
        _observe(registry, "sort", ns)
        result.rows.append(
            {"op": "parallel_merge_sort", "n": n, "p": p, "ns_per_elem": ns}
        )

    # One traced merge for the per-worker balance story (traced calls
    # are never rerouted, so this also pins the requested backend).
    tracer = Tracer()
    n = sizes[0]
    a = sorted_uniform_ints(n, seed)
    b = sorted_uniform_ints(n, seed + 1)
    parallel_merge(a, b, p, backend=backend, trace=tracer, metrics=registry)
    report = load_balance_from_trace(tracer)
    record_load_balance(registry, report=report)

    result.notes.append(
        f"canary: {result.calls} timed calls over n in {list(sizes)} at "
        f"p={p} (backend={backend!r}), + 1 traced merge on "
        f"{report.worker_count} worker(s)"
    )
    return result
