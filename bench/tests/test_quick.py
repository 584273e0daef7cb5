"""The whole benchmark on tiny inputs: every metric, with its unit, finite.

Runs ``bench/run.py --quick`` (about 2 s of load per pass and workload)
once for the module.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from common import ROOT, SPEC_PATH

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
SPEC = json.loads(SPEC_PATH.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = subprocess.run(RUN + ["--quick", "--seed", "3", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_every_metric_is_finite_with_its_unit(results):
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in results["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] > 0
        assert entry["error_rate"] == 0.0
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = entry["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert math.isfinite(got["value"]), (name, m["name"])
        for m in SPEC["end_to_end"]:
            assert entry["metrics"][m["name"]]["value"] > 0, (name, m["name"])
            assert entry["metrics"][m["name"]]["samples"] >= 1, (name, m["name"])


def test_layers_account_for_the_call(results):
    for name in ("merge_large", "merge_small"):
        m = {k: v["value"] for k, v in results["workloads"][name]["metrics"].items()}
        measured = m["partition.share"] + m["kernel.share"] + m["dispatch.share"]
        # framework is the rest of the call; the measured layers must fit in it
        assert measured <= 1.10, (name, measured)
        assert m["framework.share"] == pytest.approx(1.0 - measured)
        assert m["dispatch.batches_per_call"] >= 1


def test_host_record(results):
    host = results["host"]
    assert host["cpus"] >= 2 and host["python"] and host["numpy"]
    autotune = results["workloads"]["merge_small"]["autotune"]
    assert autotune["serial_cutover"] > 0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "merge_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_an_oversubscribed_host():
    proc = subprocess.run(
        RUN + ["--workload", "merge_small", "--quick", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert proc.returncode == 2
    assert "oversubscribed" in proc.stderr
