"""Unified counters / gauges / histograms for every merge-path phase.

One :class:`MetricsRegistry`, passed to the entry points as
``metrics=``, is the only sink production code counts into.  There is
exactly one counting path: the segment runner
(:func:`repro.execution.engine.run_segments`) publishes each batch's
merge counts from its plan, the call context
(:class:`repro.execution.Execution`) publishes calls and dispatches,
and a supervising backend (:class:`~repro.resilience.ResilientBackend`,
:class:`~repro.resilience.DegradingBackend`) counts its
``resilience.*`` totals into the registry on its ``metrics``
attribute.  (:class:`~repro.types.MergeStats` remains the step counter
of the reference kernels and models: the two-pointer and galloping
merges, the diagonal search primitive, PRAM, cache and GPU.  None of
them runs in production.)

Metric name conventions (full table in ``docs/observability.md``):

``merge.comparisons`` / ``merge.moves`` / ``merge.search_probes``
    Operation counts of the paper's step model, derived from the plan:
    segment lengths (moves), ``|A| + |B| - 1`` per segment with both
    sides non-empty (comparisons) and the partitions' Theorem 14
    ``search_steps`` (probes).
``merge.calls`` / ``merge.segments``
    Entry-point invocations and merge segments dispatched.
``spm.blocks`` and histogram ``spm.block_a_share``
    Algorithm 2 block count and per-block A-consumption share.
``sort.rounds``
    Merge rounds executed by the parallel sort.
``exec.dispatches`` and gauge ``exec.dispatches_per_call``
    Batched execution engine accounting: total backend fork/join
    dispatches, and how many the most recent entry-point call cost.
    Under the batched engine a sort call costs one dispatch per round
    (``O(log N)``) and a parallel merge exactly one.
``resilience.dispatches`` / ``.retries`` / ``.timeouts`` /
``.speculations`` / ``.worker_deaths`` / ``.batches`` / ``.tasks`` /
``.degradations`` / ``.recoveries``
    Fault-tolerant execution totals (counted by the supervising
    backend from each batch's ``BatchTelemetry``).  Only
    :class:`~repro.resilience.DegradingBackend` counts
    ``.degradations`` (hops down its chain: a level that cannot be
    built, or a batch that failed a level after retries) and
    ``.recoveries`` (circuit-breaker re-promotions), and only into the
    registry that chain is bound to; no other name repeats them.
``balance.work_spread`` / ``balance.time_imbalance`` /
``balance.workers``
    Load-balance gauges (Theorem 14 witnesses; see ``obs.balance``).
``slo.ns_per_elem`` (+ per-op ``slo.merge.*`` / ``slo.sort.*``)
    Canary-workload latency histograms; the SLO evaluator reads p50/p99
    straight off their summaries (see ``repro.control``).
``autotune.cache_corrupt``
    Calibration-cache loads that found garbage bytes instead of JSON
    (each is a counted miss, never a crash; see ``repro.durable``).
``extsort.calls`` / ``.runs`` / ``.passes`` / ``.blocks`` and gauge
``extsort.transfer_ratio``
    The SPM-planned parallel external sort
    (:mod:`repro.external.parallel`): invocations, runs formed, merge
    passes, planned block merges, and the last call's measured block
    transfers over the Aggarwal–Vitter sorting bound.
``serve.requests`` / ``.responses`` / ``.shed`` / ``.bad_requests`` /
``.errors`` / ``.deadline_misses`` / ``.connections`` / ``.batches`` /
``.coalesced_requests`` / ``.drains`` / ``.drain_rejects`` /
``.oversize_lines``, gauge ``serve.inflight``, histograms
``serve.batch_size`` / ``serve.latency_ms``
    The asyncio front door (:mod:`repro.serve`): admission and shed
    accounting, coalescer window sizes, end-to-end request latency.
    Lifecycle hardening lands here too: ``.drains`` (graceful drains
    begun), ``.drain_rejects`` (typed 503s to late arrivals) and
    ``.oversize_lines`` (typed 413s to over-long request frames).
    The server also observes batch-compute time into
    ``slo.ns_per_elem`` so ``doctor --slo --metrics-from`` judges live
    traffic with the same clauses as the canary.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing integer counter (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self._value})"


#: Bound on retained histogram samples.  Below the cap every observed
#: value is kept, so small-sample quantiles are *exact*; past it the
#: retained set is decimated (keep-every-other, stride doubles) — a
#: deterministic systematic subsample over the whole stream.
HISTOGRAM_SAMPLE_CAP = 2048


class Histogram:
    """Streaming summary plus quantiles of observed values.

    ``count``/``sum``/``min``/``max``/``mean`` are exact over the whole
    stream; :meth:`quantile` is exact while at most
    :data:`HISTOGRAM_SAMPLE_CAP` values have been observed and a
    deterministic systematic subsample beyond that.  The SLO evaluator
    (:mod:`repro.control`) reads p50/p99 from here — there is no second
    latency-accounting path.
    """

    __slots__ = (
        "name", "count", "total", "min", "max",
        "_samples", "_stride", "_pending", "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._pending = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                self._samples.append(value)
                if len(self._samples) > HISTOGRAM_SAMPLE_CAP:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (per-worker → run aggregation).

        Exact for count/sum/min/max; the sample sets concatenate and
        re-decimate under the same cap, so merged quantiles stay exact
        whenever the combined sample count fits the cap.
        """
        with other._lock:
            o_count, o_total = other.count, other.total
            o_min, o_max = other.min, other.max
            o_samples = list(other._samples)
        with self._lock:
            self.count += o_count
            self.total += o_total
            if o_min < self.min:
                self.min = o_min
            if o_max > self.max:
                self.max = o_max
            self._samples.extend(o_samples)
            while len(self._samples) > HISTOGRAM_SAMPLE_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), linearly interpolated.

        Matches ``numpy.quantile``'s default ``linear`` method on the
        retained samples; returns 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        pos = q * (len(samples) - 1)
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(samples):
            return samples[-1]
        return samples[lo] + frac * (samples[lo + 1] - samples[lo])

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named metric namespace shared by every subsystem of one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create accessors --------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
        return metric

    # -- bulk reads ----------------------------------------------------
    def value(self, name: str, default: float = 0) -> float:
        """Current value of a counter or gauge (0 when never touched)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
        return default

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every metric (stable, JSON-serializable)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = dict(self._histograms)
        out: dict[str, Any] = {}
        for name in sorted(counters):
            out[name] = counters[name].value
        for name in sorted(gauges):
            out[name] = gauges[name].value
        for name in sorted(hists):
            out[name] = hists[name].summary()
        return out

    def delta(self, before: dict[str, Any] | None = None) -> dict[str, Any]:
        """Changes since ``before`` (a prior :meth:`snapshot` dict).

        The windowed reading protocol: take ``snapshot()`` at the
        start of a window, ``delta(before)`` at the end, and
        every subsystem's activity *within the window* falls out of one
        source of truth — counters report their increment, gauges their
        current value (gauges are instantaneous, a difference would be
        meaningless), and histogram summaries report count/sum
        increments while min/max/mean/quantiles describe the current
        sample window.  ``before=None`` (or a metric absent from
        ``before``) degrades to the plain snapshot values.
        """
        snap = self.snapshot()
        if not before:
            return snap
        with self._lock:
            counters = set(self._counters)
            hists = set(self._histograms)
        out: dict[str, Any] = {}
        for name, val in snap.items():
            prev = before.get(name)
            if name in counters and isinstance(prev, (int, float)):
                out[name] = val - prev
            elif name in hists and isinstance(prev, dict):
                cur = dict(val)
                cur["count"] = val["count"] - prev.get("count", 0)
                cur["sum"] = val["sum"] - prev.get("sum", 0.0)
                out[name] = cur
            else:
                out[name] = val
        return out

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(
                sorted({*self._counters, *self._gauges, *self._histograms})
            )
