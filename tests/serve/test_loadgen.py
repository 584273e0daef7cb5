"""Load-generator tests: determinism, oracle, scoring, reports."""

from __future__ import annotations

import pytest

from repro.workloads.loadgen import (
    LoadReport,
    LoadSpec,
    build_requests,
    oracle,
    run_load_sync,
)


class TestBuildRequests:
    def test_deterministic_for_same_seed(self):
        spec = LoadSpec(seed=99, requests_per_client=30)
        assert build_requests(spec, 0) == build_requests(spec, 0)

    def test_clients_get_distinct_streams(self):
        spec = LoadSpec(seed=99, requests_per_client=30)
        assert build_requests(spec, 0) != build_requests(spec, 1)

    def test_seed_changes_traffic(self):
        a = build_requests(LoadSpec(seed=1, requests_per_client=20), 0)
        b = build_requests(LoadSpec(seed=2, requests_per_client=20), 0)
        assert a != b

    def test_mix_contains_all_ops(self):
        spec = LoadSpec(seed=3, requests_per_client=50, large_every=25,
                        topk_every=10, large_n=1000)
        ops = {r["op"] for r in build_requests(spec, 0)}
        assert ops == {"merge", "sort", "topk"}

    def test_large_every_zero_disables_sorts(self):
        spec = LoadSpec(seed=3, requests_per_client=50, large_every=0,
                        topk_every=0)
        ops = {r["op"] for r in build_requests(spec, 0)}
        assert ops == {"merge"}

    def test_merge_inputs_are_sorted(self):
        spec = LoadSpec(seed=8, requests_per_client=40)
        for req in build_requests(spec, 2):
            for key in ("a", "b"):
                if key in req:
                    assert req[key] == sorted(req[key])

    def test_deadline_attached_when_specified(self):
        spec = LoadSpec(seed=1, requests_per_client=5, deadline_ms=250.0)
        assert all(
            r["deadline_ms"] == 250.0 for r in build_requests(spec, 0)
        )


class TestOracle:
    def test_merge_oracle_is_stable_mergesort(self):
        req = {"op": "merge", "a": [1, 2, 2], "b": [2, 3]}
        assert oracle(req) == [1, 2, 2, 2, 3]

    def test_sort_oracle(self):
        assert oracle({"op": "sort", "data": [3, 1, 2]}) == [1, 2, 3]

    def test_topk_oracle_prefix(self):
        req = {"op": "topk", "a": [1, 5], "b": [2], "k": 2}
        assert oracle(req) == [1, 2]

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            oracle({"op": "ping"})


class TestLoadReport:
    def test_merge_aggregates(self):
        a = LoadReport(sent=10, ok=9, shed=1, latencies_ms=[1.0])
        b = LoadReport(sent=5, ok=5, latencies_ms=[2.0, 3.0])
        a.merge(b)
        assert a.sent == 15 and a.ok == 14 and a.shed == 1
        assert a.latencies_ms == [1.0, 2.0, 3.0]

    def test_summary_shape(self):
        rep = LoadReport(sent=4, ok=4, elapsed_s=2.0,
                         latencies_ms=[1.0, 2.0, 3.0, 4.0])
        summary = rep.summary()
        assert summary["rps"] == 2.0
        assert summary["latency_ms"]["p50"] >= 1.0
        assert summary["incorrect"] == 0

    def test_summary_empty_latencies(self):
        # An empty window has no percentiles: None, never a fake 0.0
        # (and never an IndexError).
        summary = LoadReport().summary()
        assert summary["latency_ms"]["p50"] is None
        assert summary["latency_ms"]["p99"] is None

    def test_summary_single_latency(self):
        summary = LoadReport(latencies_ms=[5.0]).summary()
        assert summary["latency_ms"]["p50"] == 5.0
        assert summary["latency_ms"]["p99"] == 5.0


class TestAgainstLiveServer:
    def test_mixed_load_all_correct(self, fresh_server):
        spec = LoadSpec(clients=4, requests_per_client=20, seed=21,
                        small_max=96, large_every=10, large_n=40_000,
                        topk_every=7)
        report = run_load_sync(fresh_server.host, fresh_server.port, spec)
        assert report.sent == 80
        assert report.incorrect == 0
        assert report.errors == 0
        assert report.ok == report.sent
        assert len(report.latencies_ms) == report.ok

    def test_duration_mode_loops_traffic(self, fresh_server):
        spec = LoadSpec(clients=2, requests_per_client=5, seed=13,
                        small_max=32, large_every=0, topk_every=0,
                        duration_s=0.5)
        report = run_load_sync(fresh_server.host, fresh_server.port, spec)
        # Looped at least once past the base request list.
        assert report.sent > 10
        assert report.incorrect == 0
        assert report.elapsed_s >= 0.5

    def test_deadline_misses_scored_not_errored(self):
        from repro.serve import ServeConfig, ServerThread

        from .conftest import slow_backend

        # Every request takes the supervised path and sleeps past its
        # 40 ms deadline in the backend.
        with ServerThread(ServeConfig(
            capacity=64, small_cutover=0, p=1,
        ), backend=slow_backend(0.2)) as handle:
            spec = LoadSpec(clients=2, requests_per_client=3, seed=4,
                            large_every=0, topk_every=0, deadline_ms=40.0)
            report = run_load_sync(handle.host, handle.port, spec)
        assert report.deadline_misses == report.sent == 6
        assert report.errors == 0
        assert report.incorrect == 0
