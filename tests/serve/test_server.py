"""End-to-end server tests over real TCP connections.

The module-scoped ``server`` fixture keeps one live instance for the
read-mostly tests; tests that assert registry deltas or shedding use
``fresh_server`` (or their own instance) so counts start from zero.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    request_sync,
)
from repro.workloads.loadgen import LoadSpec, oracle, run_load_sync

from ..conftest import reference_merge


class TestBasicOps:
    def test_ping(self, server):
        resp = request_sync(server.host, server.port, {"id": 1, "op": "ping"})
        assert resp == {"id": 1, "ok": True, "result": "pong"}

    def test_merge_matches_oracle(self, server):
        a, b = [1, 3, 5, 7], [2, 2, 6]
        resp = request_sync(
            server.host, server.port,
            {"id": "m", "op": "merge", "a": a, "b": b},
        )
        assert resp["ok"]
        assert resp["result"] == reference_merge(
            np.array(a), np.array(b)
        ).tolist()
        assert resp["n"] == 7

    def test_sort_matches_oracle(self, server):
        data = [5, -1, 3, 3, 0]
        resp = request_sync(
            server.host, server.port, {"id": "s", "op": "sort", "data": data}
        )
        assert resp["result"] == sorted(data)

    def test_sort_gives_the_stable_bytes_on_int64(self, server):
        g = np.random.default_rng(11)
        data = g.integers(-2**62, 2**62, 500, dtype=np.int64)
        data[::4] = data[3]  # ties: the leaf's quicksort reorders them
        resp = request_sync(
            server.host, server.port,
            {"id": "s64", "op": "sort", "data": data.tolist()},
        )
        out = np.array(resp["result"], dtype=np.int64)
        assert out.tobytes() == np.sort(data, kind="stable").tobytes()

    def test_topk_matches_oracle(self, server):
        req = {"id": "k", "op": "topk", "a": [1, 4, 9], "b": [2, 3], "k": 3}
        resp = request_sync(server.host, server.port, req)
        assert resp["result"] == oracle(req)

    def test_zero_element_payloads(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": 0, "op": "merge", "a": [], "b": []},
        )
        assert resp["ok"] and resp["result"] == []
        resp = request_sync(
            server.host, server.port, {"id": 1, "op": "sort", "data": []}
        )
        assert resp["ok"] and resp["result"] == []
        resp = request_sync(
            server.host, server.port,
            {"id": 2, "op": "topk", "a": [], "b": [], "k": 0},
        )
        assert resp["ok"] and resp["result"] == []

    def test_one_element_payloads(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": 3, "op": "merge", "a": [5], "b": []},
        )
        assert resp["result"] == [5]
        resp = request_sync(
            server.host, server.port,
            {"id": 4, "op": "merge", "a": [], "b": [-2]},
        )
        assert resp["result"] == [-2]

    def test_float_payload_round_trips(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": 5, "op": "merge", "a": [0.5, 1.25], "b": [1.0]},
        )
        assert resp["result"] == [0.5, 1.0, 1.25]

    def test_metrics_op_returns_snapshot(self, server):
        request_sync(server.host, server.port,
                     {"id": 6, "op": "merge", "a": [1], "b": [2]})
        resp = request_sync(server.host, server.port,
                            {"id": 7, "op": "metrics"})
        assert resp["ok"]
        snapshot = resp["result"]
        assert snapshot["serve.requests"] >= 1
        assert "serve.responses" in snapshot

    def test_bad_request_gets_400_and_echoes_id(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": "bad", "op": "merge", "a": [2, 1], "b": []},
        )
        assert resp["ok"] is False
        assert resp["id"] == "bad"
        assert resp["error"]["code"] == 400

    def test_malformed_json_answered_not_dropped(self, server):
        with ServeClient(server.host, server.port) as client:
            client._sock.sendall(b"{nonsense\n")
            resp = client.recv()
        assert resp["ok"] is False
        assert resp["error"]["kind"] == "bad-request"

    def test_blank_lines_ignored(self, server):
        with ServeClient(server.host, server.port) as client:
            client._sock.sendall(b"\n\n")
            resp = client.request({"id": 9, "op": "ping"})
        assert resp["result"] == "pong"

    def test_pipelining_matches_by_id(self, server):
        with ServeClient(server.host, server.port) as client:
            for i in range(10):
                client.send({"id": i, "op": "merge", "a": [i], "b": [i + 1]})
            got = {}
            for _ in range(10):
                resp = client.recv()
                got[resp["id"]] = resp["result"]
        assert got == {i: [i, i + 1] for i in range(10)}


class TestLargePath:
    def test_large_merge_bit_identical(self, server):
        rng = np.random.default_rng(3)
        a = np.sort(rng.integers(0, 1 << 30, 60_000))
        b = np.sort(rng.integers(0, 1 << 30, 50_000))
        resp = request_sync(
            server.host, server.port,
            {"id": "L", "op": "merge", "a": a.tolist(), "b": b.tolist()},
            timeout=120.0,
        )
        assert resp["ok"]
        assert resp["batched"] == 1  # direct path, not coalesced
        assert resp["result"] == reference_merge(a, b).tolist()

    def test_large_sort_bit_identical(self, server):
        rng = np.random.default_rng(4)
        data = rng.integers(-(1 << 30), 1 << 30, 70_000)
        resp = request_sync(
            server.host, server.port,
            {"id": "S", "op": "sort", "data": data.tolist()},
            timeout=120.0,
        )
        assert resp["ok"]
        assert resp["result"] == np.sort(data, kind="mergesort").tolist()

    def test_large_path_records_balance_gauges(self):
        with ServerThread(ServeConfig(
            capacity=16, small_cutover=1 << 10, p=2,
        )) as handle:
            rng = np.random.default_rng(5)
            a = np.sort(rng.integers(0, 1 << 20, 4_000))
            request_sync(
                handle.host, handle.port,
                {"id": 1, "op": "merge",
                 "a": a.tolist(), "b": a.tolist()},
                timeout=120.0,
            )
            snapshot = handle.registry.snapshot()
        # The structural SLO clauses read these; the parallel path must
        # feed them from live traffic.
        assert "balance.work_spread" in snapshot
        assert snapshot["exec.dispatches"] >= 1

    def test_oversized_request_rejected_413(self):
        with ServerThread(ServeConfig(
            capacity=8, max_request_elems=100,
        )) as handle:
            resp = request_sync(
                handle.host, handle.port,
                {"id": 1, "op": "sort", "data": list(range(101))},
            )
        assert resp["ok"] is False
        assert resp["error"]["code"] == 413


class TestPassedInBackend:
    def test_stop_unbinds_the_server_registry(self):
        """A passed-in chain with no registry counts into the server's
        while it runs and is handed back unbound; one with a registry of
        its own keeps it."""
        from repro.obs import MetricsRegistry
        from repro.resilience import DegradingBackend

        config = ServeConfig(capacity=16, max_batch=4, window_s=0.001, p=2)
        chain = DegradingBackend(["serial"])
        try:
            with ServerThread(config, backend=chain) as handle:
                assert chain.metrics is handle.registry
            assert chain.metrics is None

            own = MetricsRegistry()
            chain.metrics = own
            with ServerThread(config, backend=chain):
                assert chain.metrics is own
            assert chain.metrics is own
        finally:
            chain.close()


class TestAdmissionAndDeadlines:
    def test_queue_full_sheds_with_429(self):
        # Capacity 1 + a slow large request = the second request must
        # be shed immediately, not queued behind it.
        with ServerThread(ServeConfig(
            capacity=1, small_cutover=8, p=2, window_s=0.5, max_batch=1024,
        )) as handle:
            with ServeClient(handle.host, handle.port) as c1:
                # Parks in the (long) coalescing window, holding the slot.
                c1.send({"id": "hold", "op": "merge", "a": [1], "b": [2]})
                shed = request_sync(
                    handle.host, handle.port,
                    {"id": "shed", "op": "merge", "a": [3], "b": [4]},
                )
                assert shed["ok"] is False
                assert shed["error"]["code"] == 429
                assert shed["error"]["kind"] == "shed"
                # The held request still completes correctly.
                resp = c1.recv()
                assert resp["id"] == "hold" and resp["result"] == [1, 2]
            assert handle.registry.value("serve.shed") == 1

    def test_deadline_exceeded_times_out_quickly(self):
        with ServerThread(ServeConfig(
            capacity=8, window_s=5.0, max_batch=1024,
        )) as handle:
            import time

            t0 = time.monotonic()
            resp = request_sync(
                handle.host, handle.port,
                {"id": 1, "op": "merge", "a": [1], "b": [2],
                 "deadline_ms": 50},
            )
            elapsed = time.monotonic() - t0
            assert resp["ok"] is False
            assert resp["error"]["code"] == 504
            assert resp["error"]["kind"] == "deadline"
            # Timely: answered at the deadline, not after the 5s window.
            assert elapsed < 2.0
            assert handle.registry.value("serve.deadline_misses") == 1

    def test_default_deadline_from_config(self):
        with ServerThread(ServeConfig(
            capacity=8, window_s=5.0, max_batch=1024,
            default_deadline_ms=50.0,
        )) as handle:
            resp = request_sync(
                handle.host, handle.port,
                {"id": 1, "op": "merge", "a": [1], "b": [2]},
            )
            assert resp["error"]["kind"] == "deadline"

    def test_deadline_not_charged_against_fast_requests(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": 1, "op": "merge", "a": [1], "b": [2],
             "deadline_ms": 10_000},
        )
        assert resp["ok"]

    def test_ping_bypasses_admission(self):
        with ServerThread(ServeConfig(
            capacity=1, window_s=0.5, max_batch=1024,
        )) as handle:
            with ServeClient(handle.host, handle.port) as c1:
                c1.send({"id": "hold", "op": "merge", "a": [1], "b": [2]})
                # The data path is saturated; introspection still answers.
                resp = request_sync(handle.host, handle.port,
                                    {"id": "p", "op": "ping"})
                assert resp["ok"]
                resp = request_sync(handle.host, handle.port,
                                    {"id": "m", "op": "metrics"})
                assert resp["ok"]
                c1.recv()


class TestCoalescingInvariant:
    def test_dispatches_sublinear_in_requests(self, fresh_server):
        spec = LoadSpec(
            clients=8, requests_per_client=40, seed=11,
            small_max=64, large_every=0, topk_every=0, pipeline=8,
        )
        report = run_load_sync(fresh_server.host, fresh_server.port, spec)
        assert report.incorrect == 0
        assert report.ok == report.sent == 320
        snapshot = fresh_server.registry.snapshot()
        dispatches = snapshot["exec.dispatches"]
        # The coalescing invariant: pipelined concurrent requests fuse,
        # so dispatches ≪ requests (4x is a loose floor; typically 10x+).
        assert dispatches <= report.sent / 4, snapshot
        assert snapshot["serve.batches"] == dispatches
        assert snapshot["serve.coalesced_requests"] == report.sent

    def test_batch_size_histogram_recorded(self, fresh_server):
        spec = LoadSpec(clients=4, requests_per_client=20, seed=2,
                        large_every=0, topk_every=0)
        run_load_sync(fresh_server.host, fresh_server.port, spec)
        summary = fresh_server.registry.histogram(
            "serve.batch_size"
        ).summary()
        assert summary["count"] >= 1
        assert summary["max"] >= 2  # at least one window actually fused

    def test_slo_latency_histogram_fed(self, fresh_server):
        run_load_sync(fresh_server.host, fresh_server.port,
                      LoadSpec(clients=2, requests_per_client=10,
                               large_every=0, topk_every=0))
        snapshot = fresh_server.registry.snapshot()
        assert snapshot["slo.ns_per_elem"]["count"] >= 1
        assert snapshot["serve.latency_ms"]["count"] >= 1


class TestConcurrency:
    def test_sustains_64_concurrent_clients(self):
        # The acceptance-criteria scenario: 64 connections, every
        # response bit-identical, coalescing observable.
        with ServerThread(ServeConfig(
            capacity=2048, max_batch=64, window_s=0.002, p=2,
        )) as handle:
            spec = LoadSpec(
                clients=64, requests_per_client=10, seed=42,
                small_max=128, large_every=0, topk_every=5, pipeline=4,
            )
            report = run_load_sync(handle.host, handle.port, spec)
            snapshot = handle.registry.snapshot()
        assert report.sent == 640
        assert report.incorrect == 0
        assert report.ok == report.sent
        assert snapshot["exec.dispatches"] <= report.sent / 4

    def test_many_threads_one_shot_connections(self, server):
        errors: list = []

        def one(i: int) -> None:
            try:
                resp = request_sync(
                    server.host, server.port,
                    {"id": i, "op": "merge", "a": [i], "b": [i + 1]},
                )
                assert resp["result"] == [i, i + 1]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestOversizeLines:
    """A request line past ``max_line_bytes``: typed 413, counted,
    and the connection (plus everything pipelined behind it) survives."""

    @staticmethod
    def _read_all(payload: bytes, max_bytes: int):
        import asyncio

        from repro.serve.server import _LineReader

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            lines = _LineReader(reader, max_bytes)
            out = []
            while True:
                line, oversized = await lines.readline()
                if line is None:
                    return out
                out.append((line, oversized))

        return asyncio.run(go())

    def test_line_reader_passes_small_lines(self):
        out = self._read_all(b"abc\ndef\n", 16)
        assert out == [(b"abc\n", False), (b"def\n", False)]

    def test_line_reader_flags_oversize_and_recovers(self):
        big = b"x" * 100
        out = self._read_all(b"ok1\n" + big + b"\nok2\n", 16)
        assert out == [(b"ok1\n", False), (b"", True), (b"ok2\n", False)]

    def test_line_reader_oversize_at_eof_without_newline(self):
        out = self._read_all(b"y" * 100, 16)
        assert out == [(b"", True)]

    def test_line_reader_final_unterminated_line_delivered(self):
        out = self._read_all(b"tail", 16)
        assert out == [(b"tail", False)]

    def test_oversize_line_gets_typed_413_and_connection_survives(self):
        with ServerThread(ServeConfig(
            capacity=8, max_line_bytes=4096, window_s=0.001,
        )) as handle:
            with ServeClient(handle.host, handle.port, timeout=10.0) as client:
                # a single frame far past the cap, then a good request
                # pipelined right behind it on the same connection
                client._sock.sendall(
                    b'{"id": "huge", "op": "sort", "data": ['
                    + b"1," * 5000 + b"1]}\n")
                client.send({"id": "after", "op": "merge",
                             "a": [1], "b": [2]})
                first = client.recv()
                second = client.recv()
            snapshot = handle.registry.snapshot()
        assert first["ok"] is False
        assert first["error"]["kind"] == "line-too-long"
        assert first["error"]["code"] == 413
        # the bad frame cost one request, not the connection
        assert second["ok"] is True and second["result"] == [1, 2]
        assert snapshot["serve.oversize_lines"] == 1


class TestServeCLI:
    def test_no_control_still_parses(self):
        """Launch scripts pass ``--no-control``; the server runs no
        control loop, so the flag is accepted and changes nothing."""
        from repro.__main__ import _build_parser

        ns = _build_parser().parse_args(
            ["serve", "--port", "0", "--no-control"])
        assert ns.command == "serve" and ns.port == 0 and ns.no_control

    @pytest.mark.parametrize("args", [
        ["--control-interval", "1"], ["--slo", "slo.json"],
        ["--backend", "threads"],
    ])
    def test_removed_options_are_rejected(self, args, capsys):
        from repro.__main__ import _build_parser

        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["serve", "--port", "0", *args])
        assert exc.value.code == 2

    def test_the_pool_level_is_not_configurable(self):
        """The server runs in-memory work, which runs in-process, so its
        chain's pool level is always the shared thread pool."""
        with pytest.raises(TypeError):
            ServeConfig(backend="processes")
