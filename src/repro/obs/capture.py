"""Traced reference workloads for ``python -m repro trace``.

Each capture runs the workload family of one paper experiment with a
:class:`~repro.obs.Tracer` and :class:`~repro.obs.MetricsRegistry`
installed, on the real thread backend, and returns both — ready for
Chrome-trace export, flame summarisation, and load-balance reporting.
The CLI verb is the front door::

    python -m repro trace fig5 --quick --out trace.json

Sizes are deliberately modest (tracing is for *shape*; speed is
measured by the layered benchmark under ``bench/``): quick captures
run in well under a second, full captures in a few.

Kept out of ``repro.obs.__init__`` on purpose — this module imports
:mod:`repro.core`, which itself imports the tracer primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cache_sort import cache_efficient_sort
from ..core.merge_sort import parallel_merge_sort
from ..core.parallel_merge import parallel_merge
from ..core.segmented_merge import segmented_parallel_merge
from ..errors import InputError
from ..workloads.adversarial import ADVERSARIAL_PAIRS
from ..workloads.generators import sorted_uniform_ints, unsorted_uniform_ints
from .balance import load_balance_from_trace, record_load_balance
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["CaptureResult", "TRACEABLE", "trace_workload"]


@dataclass
class CaptureResult:
    """One traced workload run: the tracer, its metrics, and run notes."""

    exp_id: str
    tracer: Tracer
    metrics: MetricsRegistry
    notes: list[str] = field(default_factory=list)


def _capture_fig5(quick: bool, seed: int) -> CaptureResult:
    """Figure 5 workload: Algorithm 1 across thread counts."""
    n = 1 << 15 if quick else 1 << 17
    ps = (2, 4) if quick else (2, 4, 8, 12)
    tracer, metrics = Tracer(), MetricsRegistry()
    a = sorted_uniform_ints(n, seed)
    b = sorted_uniform_ints(n, seed + 1)
    for p in ps:
        parallel_merge(a, b, p, backend="threads", trace=tracer,
                       metrics=metrics)
    notes = [f"parallel_merge of 2x{n} elements at p in {ps} (threads)"]
    return CaptureResult("fig5", tracer, metrics, notes)


def _capture_spm(quick: bool, seed: int) -> CaptureResult:
    """Algorithm 2 workload: segmented merge with cache-sized blocks."""
    n = 1 << 14 if quick else 1 << 16
    p = 4
    L = max(1, n // 8)
    tracer, metrics = Tracer(), MetricsRegistry()
    a = sorted_uniform_ints(n, seed)
    b = sorted_uniform_ints(n, seed + 1)
    segmented_parallel_merge(a, b, p, L=L, backend="threads", trace=tracer,
                             metrics=metrics)
    notes = [f"segmented_parallel_merge of 2x{n} elements, p={p}, L={L}"]
    return CaptureResult("spm", tracer, metrics, notes)


def _capture_sort(quick: bool, seed: int) -> CaptureResult:
    """Section III workload: the parallel merge sort's rounds."""
    n = 1 << 14 if quick else 1 << 16
    p = 4
    tracer, metrics = Tracer(), MetricsRegistry()
    x = unsorted_uniform_ints(n, seed)
    parallel_merge_sort(x, p, backend="threads", trace=tracer, metrics=metrics)
    notes = [f"parallel_merge_sort of {n} elements, p={p} (threads)"]
    return CaptureResult("sort", tracer, metrics, notes)


def _capture_cachesort(quick: bool, seed: int) -> CaptureResult:
    """Section IV.C workload: the cache-efficient three-stage sort."""
    n = 1 << 13 if quick else 1 << 15
    p = 4
    cache = max(8, n // 4)
    tracer, metrics = Tracer(), MetricsRegistry()
    x = unsorted_uniform_ints(n, seed)
    cache_efficient_sort(x, p, cache, backend="threads", trace=tracer,
                         metrics=metrics)
    notes = [f"cache_efficient_sort of {n} elements, p={p}, C={cache}"]
    return CaptureResult("cachesort", tracer, metrics, notes)


def _capture_lb(quick: bool, seed: int) -> CaptureResult:
    """Section V workload: adversarial inputs, the balance stress test."""
    n = 1 << 12 if quick else 1 << 14
    p = 8
    tracer, metrics = Tracer(), MetricsRegistry()
    for name, make in ADVERSARIAL_PAIRS.items():
        a, b = make(n)
        parallel_merge(a, b, p, backend="threads", trace=tracer,
                       metrics=metrics)
    notes = [
        f"parallel_merge at p={p} over {len(ADVERSARIAL_PAIRS)} adversarial "
        f"pairs of {n} elements each"
    ]
    return CaptureResult("lb", tracer, metrics, notes)


#: Capture id -> (runner, one-line description).  Ids mirror the
#: experiment registry where a matching experiment exists.
TRACEABLE = {
    "fig5": (_capture_fig5, "Algorithm 1 across thread counts (Figure 5)"),
    "spm": (_capture_spm, "Algorithm 2 segmented merge blocks (Section IV)"),
    "sort": (_capture_sort, "parallel merge sort rounds (Section III)"),
    "cachesort": (_capture_cachesort,
                  "cache-efficient three-stage sort (Section IV.C)"),
    "lb": (_capture_lb, "adversarial load-balance sweep (Section V)"),
}


def trace_workload(
    exp_id: str, *, quick: bool = False, seed: int = 7
) -> CaptureResult:
    """Run the traced workload for ``exp_id`` (case-insensitive).

    Returns a :class:`CaptureResult`; the tracer is ready for
    :func:`repro.obs.write_chrome_trace` and the metrics registry holds
    kernel counts plus the load-balance gauges (the trace-derived
    gauges are recorded here too, so a single snapshot tells the whole
    story).
    """
    key = exp_id.lower()
    if key not in TRACEABLE:
        raise InputError(
            f"unknown traceable workload {exp_id!r}; "
            f"choose from {', '.join(sorted(TRACEABLE))}"
        )
    runner, _desc = TRACEABLE[key]
    capture = runner(quick, seed)
    report = load_balance_from_trace(capture.tracer)
    record_load_balance(capture.metrics, report=report)
    capture.notes.append(
        f"{capture.tracer.span_count} spans from "
        f"{len(capture.tracer.worker_ids())} worker thread(s)"
    )
    return capture
