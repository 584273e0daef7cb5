"""SLO schema, clause judging, and report semantics."""

import json

import pytest

from repro.control import DEFAULT_SLO, SLO, evaluate_slo
from repro.control.slo import FAIL, PASS, SKIP, WARN
from repro.obs import MetricsRegistry


def _hist(p50, p99, count=10):
    return {"count": count, "sum": p50 * count, "min": p50, "max": p99,
            "mean": p50, "p50": p50, "p90": p99, "p99": p99}


class TestSLOSchema:
    def test_round_trips_through_dict(self):
        slo = SLO(name="tight", p99_ns_per_elem=500.0, retry_budget=3)
        again = SLO.from_dict(slo.to_dict())
        assert again == slo

    def test_dict_is_json_plain(self):
        json.dumps(DEFAULT_SLO.to_dict())

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="p99_typo"):
            SLO.from_dict({"p99_typo": 1.0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"name": "ci", "max_work_spread": 2.0}))
        slo = SLO.from_file(str(path))
        assert slo.name == "ci"
        assert slo.max_work_spread == 2.0
        # unspecified fields keep their defaults
        assert slo.retry_budget == DEFAULT_SLO.retry_budget


class TestClauseJudging:
    def test_all_pass_on_healthy_snapshot(self):
        snap = {
            "slo.ns_per_elem": _hist(50.0, 120.0),
            "balance.work_spread": 1.0,
            "exec.dispatches_per_call": 1.0,
            "resilience.retries": 0,
            "resilience.worker_deaths": 0,
        }
        report = evaluate_slo(DEFAULT_SLO, snap)
        assert report.status == PASS
        assert not report.failed

    def test_missing_metric_skips_not_fails(self):
        report = evaluate_slo(DEFAULT_SLO, {})
        assert report.status == PASS
        assert all(c.status == SKIP for c in report.clauses)
        assert "not recorded" in report.clause("p50_ns_per_elem").describe()

    def test_empty_histogram_skips(self):
        snap = {"slo.ns_per_elem": {"count": 0, "sum": 0.0}}
        report = evaluate_slo(DEFAULT_SLO, snap)
        assert report.clause("p99_ns_per_elem").status == SKIP

    def test_latency_over_limit_fails_and_names_metric(self):
        snap = {"slo.ns_per_elem": _hist(50.0, 5000.0)}
        report = evaluate_slo(DEFAULT_SLO, snap)
        clause = report.clause("p99_ns_per_elem")
        assert clause.status == FAIL
        assert clause.metric == "slo.ns_per_elem p99"
        assert clause.observed == 5000.0
        assert report.status == FAIL
        assert clause in report.failed

    def test_latency_in_warn_band_warns(self):
        # p50 limit 250, warn_fraction 0.8 -> [200, 250] is WARN
        snap = {"slo.ns_per_elem": _hist(210.0, 400.0)}
        report = evaluate_slo(DEFAULT_SLO, snap)
        assert report.clause("p50_ns_per_elem").status == WARN
        assert report.status == WARN

    def test_work_spread_at_limit_passes_without_warn(self):
        # Theorem 14's normal value sits exactly at the limit; the warn
        # band must not apply to structural clauses.
        report = evaluate_slo(DEFAULT_SLO, {"balance.work_spread": 1.0})
        assert report.clause("max_work_spread").status == PASS

    def test_work_spread_over_limit_fails(self):
        report = evaluate_slo(DEFAULT_SLO, {"balance.work_spread": 2.0})
        assert report.clause("max_work_spread").status == FAIL

    def test_retry_budget_counts_as_structural(self):
        report = evaluate_slo(DEFAULT_SLO, {"resilience.retries": 0})
        assert report.clause("retry_budget").status == PASS
        report = evaluate_slo(DEFAULT_SLO, {"resilience.retries": 1})
        assert report.clause("retry_budget").status == FAIL

    def test_none_limit_disables_clause(self):
        slo = SLO(p50_ns_per_elem=None, p99_ns_per_elem=None)
        report = evaluate_slo(slo, {"slo.ns_per_elem": _hist(1e9, 1e9)})
        assert report.clause("p50_ns_per_elem") is None
        assert report.clause("p99_ns_per_elem") is None
        assert report.status == PASS

    def test_time_imbalance_clause_when_enabled(self):
        slo = SLO(max_time_imbalance=1.5)
        report = evaluate_slo(slo, {"balance.time_imbalance": 2.0})
        assert report.clause("max_time_imbalance").status == FAIL


class TestWindows:
    def test_delta_window_forgets_old_failures(self):
        """A window judges the current gauge: a failure in an earlier
        window does not carry over once the metric recovers."""
        slo = SLO(max_dispatches_per_call=4.0)
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.gauge("exec.dispatches_per_call").set(100.0)
        first = evaluate_slo(slo, registry.delta(before))
        assert first.clause("max_dispatches_per_call").status == FAIL
        before = registry.snapshot()
        registry.gauge("exec.dispatches_per_call").set(1.0)
        second = evaluate_slo(slo, registry.delta(before))
        assert second.clause("max_dispatches_per_call").status == PASS
        assert second.status == PASS


class TestReport:
    def test_describe_lists_every_clause(self):
        snap = {"balance.work_spread": 1.0}
        report = evaluate_slo(DEFAULT_SLO, snap)
        text = report.describe()
        assert "SLO 'default'" in text
        for clause in report.clauses:
            assert clause.clause in text

    def test_to_dict_is_json_plain(self):
        report = evaluate_slo(DEFAULT_SLO, {"balance.work_spread": 3.0})
        raw = json.loads(json.dumps(report.to_dict()))
        assert raw["status"] == FAIL
        statuses = {c["clause"]: c["status"] for c in raw["clauses"]}
        assert statuses["max_work_spread"] == FAIL
