"""Observability layer: tracing, metrics, and load-balance gauges.

The paper's claims are observable properties — equal partitions
(Theorem 14), an ``O(N/p + log N)`` split between diagonal search and
segment merge (Algorithm 1), cache-block behavior (Section IV).  This
package makes them visible with zero external dependencies:

* :mod:`repro.obs.tracer` — nested spans with lock-free per-worker
  buffers (``partition.search``, ``segment.merge``, ``spm.block``,
  ``sort.round``, ``backend.task``);
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  ``chrome://tracing`` / Perfetto) and a text flame summary;
* :mod:`repro.obs.metrics` — the unified counter/gauge/histogram
  registry every subsystem (kernels, resilience, conformance chaos)
  feeds;
* :mod:`repro.obs.balance` — per-worker load shares and the Theorem 14
  work-spread gauge;
* :mod:`repro.obs.capture` — traced reference workloads behind the
  ``python -m repro trace`` CLI verb (imported lazily: it depends on
  :mod:`repro.core`).

Enable at any entry point with the ``trace=`` / ``metrics=`` keywords::

    from repro import parallel_merge
    from repro.obs import Tracer, MetricsRegistry, write_chrome_trace

    tracer, registry = Tracer(), MetricsRegistry()
    parallel_merge(a, b, p=4, trace=tracer, metrics=registry)
    write_chrome_trace(tracer, "trace.json")
    print(registry.snapshot())
"""

from .balance import (
    LoadBalanceReport,
    WorkerLoad,
    load_balance_from_trace,
    partition_work_spread,
    record_load_balance,
)
from .export import (
    chrome_trace,
    chrome_trace_events,
    flame_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import NULL_SPAN, NullSpan, Span, SpanRecord, Tracer

__all__ = [
    "Tracer",
    "Span",
    "SpanRecord",
    "NullSpan",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "flame_summary",
    "LoadBalanceReport",
    "WorkerLoad",
    "load_balance_from_trace",
    "partition_work_spread",
    "record_load_balance",
]
