"""Chrome-trace export: schema validity on a real traced merge."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import parallel_merge
from repro.backends import ThreadBackend
from repro.obs import Tracer, write_chrome_trace
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    flame_summary,
    validate_chrome_trace,
)
from repro.resilience import FaultInjector, FaultyBackend

from ..conftest import reference_merge


@pytest.fixture(scope="module")
def traced_merge() -> Tracer:
    """One traced p=4 merge on a four-thread pool.  Every task sleeps
    50 ms before it merges, so no worker can drain all four segments
    before another picks one up: at least two workers record
    ``segment.merge`` spans however fast the segments are."""
    tracer = Tracer()
    g = np.random.default_rng(42)
    a = np.sort(g.integers(0, 10**6, 20_000))
    b = np.sort(g.integers(0, 10**6, 20_000))
    backend = FaultyBackend(
        ThreadBackend(4), FaultInjector(delay_rate=1.0, delay_s=0.05)
    )
    try:
        out = parallel_merge(a, b, 4, backend=backend, trace=tracer)
    finally:
        backend.close()
    assert (out == reference_merge(a, b)).all()
    return tracer


class TestChromeTrace:
    def test_validates_clean(self, traced_merge):
        doc = chrome_trace(traced_merge)
        assert validate_chrome_trace(doc) == []

    def test_required_span_names_present(self, traced_merge):
        names = {e["name"] for e in chrome_trace_events(traced_merge)
                 if e["ph"] == "X"}
        assert "partition.search" in names
        assert "segment.merge" in names
        assert "backend.task" in names

    def test_multiple_workers_recorded(self, traced_merge):
        tids = {e["tid"] for e in chrome_trace_events(traced_merge)
                if e.get("name") == "segment.merge"}
        assert len(tids) >= 2

    def test_complete_events_have_ts_dur_pid_tid(self, traced_merge):
        for e in chrome_trace_events(traced_merge):
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["ts"] >= 0
                assert e["dur"] > 0

    def test_metadata_events_name_threads(self, traced_merge):
        meta = [e for e in chrome_trace_events(traced_merge) if e["ph"] == "M"]
        kinds = {e["name"] for e in meta}
        assert "process_name" in kinds
        assert "thread_name" in kinds

    def test_json_round_trip(self, traced_merge, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_merge, path)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ms"

    def test_span_args_exported(self, traced_merge):
        seg = [e for e in chrome_trace_events(traced_merge)
               if e.get("name") == "segment.merge"]
        for e in seg:
            assert e["args"]["length"] > 0
            assert "a_start" in e["args"]
        search = [e for e in chrome_trace_events(traced_merge)
                  if e.get("name") == "partition.search"]
        assert search and all(e["args"]["probes"] > 0 for e in search)

    def test_flame_summary_mentions_spans(self, traced_merge):
        text = flame_summary(traced_merge)
        assert "segment.merge" in text
        assert "partition.search" in text


class TestValidator:
    def test_flags_missing_fields(self):
        doc = {"traceEvents": [{"ph": "X", "name": "x"}]}
        errs = validate_chrome_trace(doc)
        assert errs

    def test_flags_bad_phase(self):
        doc = {"traceEvents": [
            {"ph": "?", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": 1}
        ]}
        assert validate_chrome_trace(doc)

    def test_flags_empty(self):
        assert validate_chrome_trace({"traceEvents": []})
