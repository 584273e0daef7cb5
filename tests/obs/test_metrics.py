"""Metrics registry: primitives, entry-point counts, resilience counts."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.resilience.telemetry import BatchTelemetry, TaskTelemetry
from repro.types import MergeStats


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert reg.value("x") == 5
        assert reg.counter("x") is c  # get-or-create

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3.5)
        g.set(1.25)
        assert reg.value("g") == 1.25

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_snapshot_is_json_plain(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a.count").inc(2)
        reg.gauge("b.gauge").set(0.5)
        reg.histogram("c.hist").observe(1.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["a.count"] == 2
        assert snap["c.hist"]["count"] == 1

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def work() -> None:
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestEntryPointFlush:
    def test_parallel_merge_metrics_only(self):
        """metrics= alone gets the call's merge counts."""
        import numpy as np

        from repro import parallel_merge

        reg = MetricsRegistry()
        a = np.arange(0, 2000, 2)
        b = np.arange(1, 2000, 2)
        parallel_merge(a, b, 4, backend="serial", metrics=reg)
        assert reg.value("merge.calls") == 1
        assert reg.value("merge.segments") == 4
        assert reg.value("merge.moves") >= 0
        assert reg.value("merge.comparisons") > 0
        assert reg.value("merge.search_probes") > 0

    def test_vectorized_partition_counts_probes(self):
        """The lockstep search probes as often as the partition records."""
        import numpy as np

        from repro.core.merge_path import (
            diagonal_intersections_vectorized,
            partition_merge_path,
        )

        a = np.arange(0, 4096, 2)
        b = np.arange(1, 4096, 2)
        s_vec = MergeStats()
        diagonal_intersections_vectorized(a, b, [512 * k for k in range(1, 8)],
                                          stats=s_vec)
        part = partition_merge_path(a, b, 8)
        assert s_vec.search_probes > 0
        assert sum(part.search_steps) > 0


class TestTelemetryBridge:
    @staticmethod
    def _batch(**kwargs) -> BatchTelemetry:
        defaults = dict(index=0, dispatches=1, winner="primary")
        defaults.update(kwargs)
        return BatchTelemetry(tasks=(TaskTelemetry(**defaults),))

    def test_record_emits_resilience_counters(self):
        reg = MetricsRegistry()
        self._batch(dispatches=3, retries=2, timeouts=1).publish(reg)
        self._batch(dispatches=2, speculations=1).publish(reg)
        assert reg.value("resilience.batches") == 2
        assert reg.value("resilience.tasks") == 2
        assert reg.value("resilience.dispatches") == 5
        assert reg.value("resilience.retries") == 2
        assert reg.value("resilience.timeouts") == 1
        assert reg.value("resilience.speculations") == 1
        assert reg.value("resilience.worker_deaths") == 0

    def test_registry_matches_aggregate_properties(self):
        """The registry and the batch aggregates agree: one counting path."""
        reg = MetricsRegistry()
        batch = self._batch(dispatches=4, retries=3, worker_deaths=1)
        batch.publish(reg)
        assert reg.value("resilience.dispatches") == batch.dispatches
        assert reg.value("resilience.retries") == batch.retries
        assert reg.value("resilience.worker_deaths") == batch.worker_deaths

    def test_unbound_telemetry_unchanged(self):
        """A supervisor without a registry still keeps its latest batch."""
        from repro.backends import SerialBackend
        from repro.resilience import ResilientBackend

        rb = ResilientBackend(SerialBackend())
        rb.run_tasks([lambda: 1, lambda: 2])
        assert rb.metrics is None
        assert rb.last_batch.dispatches == 2 and rb.last_batch.retries == 0


class TestHistogramQuantiles:
    def test_exact_on_small_odd_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [9, 1, 5, 3, 7, 2, 8, 4, 6]:  # 1..9 shuffled
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 5.0
        assert h.quantile(1.0) == 9.0

    def test_linear_interpolation_on_even_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(2.5)
        assert h.quantile(0.25) == pytest.approx(1.75)

    def test_matches_numpy_percentile(self):
        import numpy as np

        rng = np.random.default_rng(5)
        values = rng.exponential(100.0, size=200)
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in values:
            h.observe(float(v))
        for q in (0.5, 0.9, 0.99):
            assert h.quantile(q) == pytest.approx(
                float(np.percentile(values, q * 100)), rel=1e-9
            )

    def test_empty_histogram_quantile_is_zero(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.summary()["p99"] == 0.0

    def test_quantile_rejects_out_of_range(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_summary_carries_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["p50"] == pytest.approx(50.5)
        assert s["p99"] == pytest.approx(99.01)
        # and the registry snapshot exposes the same numbers
        assert reg.snapshot()["h"]["p50"] == s["p50"]

    def test_sample_cap_bounds_memory_not_count(self):
        from repro.obs.metrics import HISTOGRAM_SAMPLE_CAP

        reg = MetricsRegistry()
        h = reg.histogram("h")
        n = HISTOGRAM_SAMPLE_CAP * 4
        for v in range(n):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == n
        assert len(h._samples) <= HISTOGRAM_SAMPLE_CAP
        # decimated quantiles stay close on a uniform ramp
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.05)

    def test_merge_folds_per_worker_histograms(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        ha, hb = reg_a.histogram("h"), reg_b.histogram("h")
        for v in (1.0, 2.0, 3.0):
            ha.observe(v)
        for v in (100.0, 200.0, 300.0):
            hb.observe(v)
        ha.merge(hb)
        s = ha.summary()
        assert s["count"] == 6
        assert s["sum"] == pytest.approx(606.0)
        assert s["min"] == 1.0 and s["max"] == 300.0
        assert ha.quantile(0.5) == pytest.approx(51.5)  # (3+100)/2
        # source histogram is unchanged
        assert hb.summary()["count"] == 3


class TestSnapshotDelta:
    def test_delta_without_baseline_is_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert reg.delta(None) == reg.snapshot()

    def test_counters_subtract(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        before = reg.snapshot()
        reg.counter("c").inc(4)
        assert reg.delta(before)["c"] == 4

    def test_gauges_report_current_value(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        before = reg.snapshot()
        reg.gauge("g").set(2.0)
        assert reg.delta(before)["g"] == 2.0

    def test_histograms_subtract_count_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(10.0)
        before = reg.snapshot()
        h.observe(20.0)
        h.observe(30.0)
        d = reg.delta(before)["h"]
        assert d["count"] == 2
        assert d["sum"] == pytest.approx(50.0)

    def test_metric_born_after_baseline_appears_whole(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("new").inc(7)
        assert reg.delta(before)["new"] == 7
