"""Doctor over live-server metrics: the ``--metrics-from`` path.

Closes the loop the tentpole promises: serve traffic feeds a registry,
the snapshot is persisted (exactly what the ``metrics`` op returns),
and ``doctor --slo --metrics-from`` judges that window with the same
clause machinery as the canary — no replay.
"""

from __future__ import annotations

import json

import pytest

from repro.control import SLO, run_doctor
from repro.control.doctor import load_metrics_snapshot, write_doctor_json
from repro.serve import SERVE_DEFAULT_SLO, request_sync
from repro.workloads.loadgen import LoadSpec, run_load_sync


@pytest.fixture()
def live_window(fresh_server, tmp_path):
    """Drive real traffic, persist the server's snapshot, return the path."""
    spec = LoadSpec(clients=4, requests_per_client=15, seed=17,
                    small_max=64, large_every=0, topk_every=5)
    report = run_load_sync(fresh_server.host, fresh_server.port, spec)
    assert report.incorrect == 0
    snapshot = request_sync(
        fresh_server.host, fresh_server.port, {"id": "m", "op": "metrics"}
    )["result"]
    path = tmp_path / "serve-metrics.json"
    path.write_text(json.dumps({"metrics": snapshot}) + "\n")
    return path


class TestMetricsFrom:
    def test_load_metrics_snapshot_unwraps(self, tmp_path):
        raw = {"serve.requests": 3}
        p1 = tmp_path / "raw.json"
        p1.write_text(json.dumps(raw))
        assert load_metrics_snapshot(str(p1)) == raw
        p2 = tmp_path / "wrapped.json"
        p2.write_text(json.dumps({"schema": "x", "metrics": raw}))
        assert load_metrics_snapshot(str(p2)) == raw

    def test_load_metrics_snapshot_rejects_non_object(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_metrics_snapshot(str(p))

    def test_doctor_judges_live_window_without_fail(self, live_window):
        doc = run_doctor(
            SERVE_DEFAULT_SLO, quick=True, metrics_from=str(live_window)
        )
        # The acceptance criterion: no FAIL clause on live traffic.
        assert doc.ok, doc.report.describe()
        assert doc.status in ("PASS", "WARN")
        # The judged metrics really are the server's window.
        assert doc.metrics.get("serve.requests", 0) > 0
        assert any("metrics window loaded" in n for n in doc.canary_notes)

    def test_doctor_metrics_from_skips_canary(self, live_window):
        doc = run_doctor(
            SERVE_DEFAULT_SLO, quick=True, metrics_from=str(live_window)
        )
        # A canary replay would have recorded merge.calls; this window
        # carried only small requests, computed inline, so it has none.
        assert "merge.calls" not in doc.metrics
        assert doc.metrics["serve.responses"] > 0

    def test_doctor_fails_on_bad_window(self, tmp_path):
        # A window with a pathological p99 must FAIL the latency clause.
        window = {
            "slo.ns_per_elem": {
                "count": 100, "sum": 1e12, "min": 1e9, "max": 1e10,
                "mean": 1e10, "p50": 1e9, "p90": 1e10, "p99": 1e10,
            },
        }
        path = tmp_path / "bad-window.json"
        path.write_text(json.dumps(window))
        doc = run_doctor(
            SERVE_DEFAULT_SLO, quick=True, metrics_from=str(path)
        )
        assert not doc.ok

    def test_verdict_json_round_trips(self, live_window, tmp_path):
        doc = run_doctor(
            SERVE_DEFAULT_SLO, quick=True, metrics_from=str(live_window)
        )
        out = tmp_path / "verdict.json"
        write_doctor_json(doc, str(out))
        verdict = json.loads(out.read_text())
        assert verdict["schema"] == "repro-doctor/1"
        assert verdict["status"] == doc.status

    def test_cli_flag_wired(self, live_window, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "verdict.json"
        code = main([
            "doctor", "--quick",
            "--metrics-from", str(live_window),
            "--json", str(out),
        ])
        printed = capsys.readouterr().out
        assert "repro doctor" in printed
        assert out.exists()
        assert code in (0, 1)  # structured either way; FAIL-free data → 0


class TestServeDefaultSlo:
    def test_serve_slo_evaluates_cleanly(self):
        assert SERVE_DEFAULT_SLO.name == "serve-default"
        assert SERVE_DEFAULT_SLO.max_worker_deaths == 0

    def test_serve_slo_from_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(SERVE_DEFAULT_SLO.to_dict()))
        loaded = SLO.from_file(str(path))
        assert loaded.p50_ns_per_elem == SERVE_DEFAULT_SLO.p50_ns_per_elem
