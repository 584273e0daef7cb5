"""Unified counters / gauges / histograms for every merge-path phase.

One :class:`MetricsRegistry` replaces the ad-hoc counter sinks that had
grown around the package: the :class:`~repro.types.MergeStats` protocol
(comparisons / moves / search probes) stays the *kernel-facing* sink —
it is tiny and allocation-free — but its totals now land in named
registry counters, next to the resilience layer's retry/timeout/
speculation counts and the load-balance gauges.  There is exactly one
counting path: kernels count into a ``MergeStats``-shaped object, entry
points flush the *delta* of each call into the registry, and
:class:`~repro.resilience.ExecutionTelemetry` emits its batch totals
into the same registry when bound to one.

Metric name conventions (full table in ``docs/observability.md``):

``merge.comparisons`` / ``merge.moves`` / ``merge.search_probes``
    Kernel operation counts (the quantities of the paper's step model).
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
``.recoveries``
    Fault-tolerant execution totals (fed by ``ExecutionTelemetry``);
    ``.recoveries`` counts circuit-breaker re-promotions of a
    previously failed degradation level.
``balance.work_spread`` / ``balance.time_imbalance`` /
``balance.workers``
    Load-balance gauges (Theorem 14 witnesses; see ``obs.balance``).
``slo.ns_per_elem`` (+ per-op ``slo.merge.*`` / ``slo.sort.*``)
    Canary-workload latency histograms; the SLO evaluator reads p50/p99
    straight off their summaries (see ``repro.control``).
``control.steps`` / ``.retunes`` / ``.degradations`` /
``.recoveries`` / ``.slo_failures`` and gauge ``control.last_status``
    The controller's own decisions — the control plane is observable
    through the same registry it reads.  ``.degradations`` /
    ``.recoveries`` count the chain events each step recorded (they
    retune nothing).
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
``.errors`` / ``.deadline_misses`` / ``.connections`` /
``.degradations`` / ``.recoveries`` / ``.batches`` /
``.coalesced_requests`` / ``.drains`` / ``.drain_rejects`` /
``.oversize_lines``, gauge ``serve.inflight``, histograms
``serve.batch_size`` / ``serve.latency_ms``
    The asyncio front door (:mod:`repro.serve`): admission and shed
    accounting, coalescer window sizes, end-to-end request latency.
    Lifecycle hardening lands here too: ``.drains`` (graceful drains
    begun), ``.drain_rejects`` (typed 503s to late arrivals),
    ``.oversize_lines`` (typed 413s to over-long request frames), and
    ``.recoveries`` (breaker re-promotions observed by the server).
    The server also observes batch-compute time into
    ``slo.ns_per_elem`` (+ ``slo.serve.ns_per_elem``) so ``doctor
    --slo --metrics-from`` judges live traffic with the same clauses
    as the canary.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryMergeStats",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..types import MergeStats


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

        The controller's reading protocol: take ``snapshot()`` at the
        start of a control window, ``delta(before)`` at the end, and
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

    # -- MergeStats protocol bridge ------------------------------------
    def merge_stats(self, prefix: str = "merge") -> "RegistryMergeStats":
        """A ``MergeStats``-protocol sink that writes through to counters.

        This is the *one protocol* for operation counting: any API that
        accepts ``stats=`` (``partition_merge_path``, the merge kernels,
        ``cache_efficient_sort``, ...) can be pointed at the registry by
        passing ``registry.merge_stats()``.
        """
        return RegistryMergeStats(self, prefix)

    def record_merge_stats(
        self, stats: "MergeStats", prefix: str = "merge"
    ) -> None:
        """Add a finished ``MergeStats`` total into the registry counters."""
        self.counter(f"{prefix}.comparisons").inc(stats.comparisons)
        self.counter(f"{prefix}.moves").inc(stats.moves)
        self.counter(f"{prefix}.search_probes").inc(stats.search_probes)

    def record_merge_delta(
        self,
        before: tuple[int, int, int],
        stats: "MergeStats",
        prefix: str = "merge",
    ) -> None:
        """Add only the counts accrued since ``before`` (a field snapshot).

        Entry points use this so a caller-provided ``stats`` object that
        already held counts is not double-recorded.
        """
        c0, m0, s0 = before
        self.counter(f"{prefix}.comparisons").inc(stats.comparisons - c0)
        self.counter(f"{prefix}.moves").inc(stats.moves - m0)
        self.counter(f"{prefix}.search_probes").inc(stats.search_probes - s0)


class RegistryMergeStats:
    """Adapter implementing the ``MergeStats`` attribute protocol.

    Kernels mutate stats sinks with ``stats.comparisons += n`` /
    ``stats.merge(other)``; this class maps those attribute writes onto
    registry counters, so legacy call sites route through the unified
    registry without signature changes.  Intended for single-threaded
    accumulation (per-task sinks are separate objects merged at the
    barrier, exactly like plain ``MergeStats``).
    """

    __slots__ = ("_comparisons", "_moves", "_search_probes")

    def __init__(self, registry: MetricsRegistry, prefix: str = "merge") -> None:
        object.__setattr__(self, "_comparisons", registry.counter(f"{prefix}.comparisons"))
        object.__setattr__(self, "_moves", registry.counter(f"{prefix}.moves"))
        object.__setattr__(self, "_search_probes", registry.counter(f"{prefix}.search_probes"))

    # Attribute protocol: reads return the counter total; writes record
    # the (non-negative) delta, which is what ``x.field += n`` produces.
    @property
    def comparisons(self) -> int:
        return self._comparisons.value

    @comparisons.setter
    def comparisons(self, value: int) -> None:
        self._comparisons.inc(value - self._comparisons.value)

    @property
    def moves(self) -> int:
        return self._moves.value

    @moves.setter
    def moves(self, value: int) -> None:
        self._moves.inc(value - self._moves.value)

    @property
    def search_probes(self) -> int:
        return self._search_probes.value

    @search_probes.setter
    def search_probes(self, value: int) -> None:
        self._search_probes.inc(value - self._search_probes.value)

    def merge(self, other: Any) -> None:
        """Accumulate another sink's counters (MergeStats-compatible)."""
        self._comparisons.inc(other.comparisons)
        self._moves.inc(other.moves)
        self._search_probes.inc(other.search_probes)

    @property
    def total_ops(self) -> int:
        return self.comparisons + self.moves + self.search_probes
