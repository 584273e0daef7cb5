"""`python -m repro doctor`: one-shot operability verdict."""

import json

import pytest

from repro.__main__ import main
from repro.control import SLO, render_doctor, run_doctor, write_doctor_json
from repro.control.doctor import DOCTOR_SCHEMA
from repro.execution.autotune import Autotuner, get_autotuner

#: Limits no functional run can breach — CLI tests must not flake on a
#: loaded test runner; the structural clauses still gate for real.
_LOOSE = SLO(name="loose", p50_ns_per_elem=1e9, p99_ns_per_elem=1e9)


def _tuner(tmp_path):
    t = Autotuner(cache_path=tmp_path / "tune.json")
    t.seed(serial_cutover=4096)  # probe-free thresholds
    return t


class TestRunDoctor:
    def test_quick_run_produces_structured_verdict(self, tmp_path):
        doc = run_doctor(_LOOSE, quick=True, autotuner=_tuner(tmp_path))
        assert doc.status in ("PASS", "WARN", "FAIL")
        assert doc.report.clauses  # every enabled clause judged
        # quick mode probes threads only
        assert doc.probes == {"threads": "ok"}
        assert doc.host["cpu_count"] >= 1
        # only the measured threshold is reported
        assert doc.autotune["thresholds"] == {
            "serial_cutover": 4096, "source": "seeded",
        }
        # the canary fed the latency histogram the clauses read
        assert doc.metrics["slo.ns_per_elem"]["count"] > 0

    def test_structural_clauses_pass_on_healthy_host(self, tmp_path):
        doc = run_doctor(_LOOSE, quick=True, autotuner=_tuner(tmp_path))
        # Theorem 14 witness and dispatch accounting must hold here
        for clause in ("max_work_spread", "max_dispatches_per_call"):
            assert doc.report.clause(clause).status == "PASS", clause

    def test_to_dict_schema_and_json_roundtrip(self, tmp_path):
        doc = run_doctor(_LOOSE, quick=True, autotuner=_tuner(tmp_path))
        path = tmp_path / "doctor.json"
        write_doctor_json(doc, str(path))
        raw = json.loads(path.read_text())
        assert raw["schema"] == DOCTOR_SCHEMA
        assert raw["status"] == doc.status
        assert raw["slo"]["name"] == "loose"
        assert {c["clause"] for c in raw["verdict"]["clauses"]} >= {
            "p50_ns_per_elem", "max_work_spread",
        }

    def test_render_mentions_every_verdict(self, tmp_path):
        doc = run_doctor(_LOOSE, quick=True, autotuner=_tuner(tmp_path))
        text = render_doctor(doc)
        assert f"overall: {doc.status}" in text
        assert "backend threads: ok" in text
        for clause in doc.report.clauses:
            assert clause.clause in text
        assert "thresholds: serial<4096 [seeded]" in text
        assert "processes>=" not in text and "tiny<" not in text
        assert "4611686018427387904" not in text  # NEVER renders as 'never'

    def test_failing_slo_flips_ok(self, tmp_path):
        # an impossible latency bound must FAIL and clear `ok`
        slo = SLO(name="impossible", p50_ns_per_elem=1e-6,
                  p99_ns_per_elem=None)
        doc = run_doctor(slo, quick=True, autotuner=_tuner(tmp_path))
        assert doc.report.clause("p50_ns_per_elem").status == "FAIL"
        assert doc.status == "FAIL"
        assert not doc.ok


class TestDoctorCLI:
    @pytest.fixture(autouse=True)
    def _hermetic_global_tuner(self, tmp_path, monkeypatch):
        # the CLI consults the process-wide tuner: redirect its cache
        # and pin default thresholds so no test run probes the host
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE",
                           str(tmp_path / "cache.json"))
        get_autotuner().seed(serial_cutover=4096)

    def test_doctor_quick_exits_zero_and_writes_json(self, tmp_path):
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps(_LOOSE.to_dict()))
        out = tmp_path / "doctor.json"
        rc = main(["doctor", "--quick", "--slo", str(slo_path),
                   "--json", str(out)])
        assert rc == 0
        raw = json.loads(out.read_text())
        assert raw["schema"] == DOCTOR_SCHEMA
        assert raw["status"] in ("PASS", "WARN")

    def test_doctor_fails_nonzero(self, tmp_path):
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps(
            SLO(name="impossible", p50_ns_per_elem=1e-6).to_dict()
        ))
        rc = main(["doctor", "--quick", "--slo", str(slo_path)])
        assert rc == 1

    def test_tune_watch_quick_runs_cycles(self, tmp_path):
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps(_LOOSE.to_dict()))
        rc = main(["tune", "--watch", "--cycles", "2", "--interval", "0",
                   "--quick", "--slo", str(slo_path)])
        assert rc == 0
