"""End-to-end server tests over real TCP connections.

The module-scoped ``server`` fixture keeps one live instance for the
read-mostly tests; tests that assert registry deltas or shedding use
``fresh_server`` (or their own instance) so counts start from zero.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import Backend
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    request_sync,
)
from repro.serve.protocol import encode_line
from repro.serve.server import _LineReader
from repro.workloads.loadgen import LoadSpec, oracle, run_load_sync

from ..conftest import reference_merge
from .conftest import slow_backend


def _wait_for_inflight(handle: ServerThread, n: int) -> None:
    """Block until ``n`` requests hold admission slots on ``handle``."""
    deadline = time.monotonic() + 10.0
    while handle.server.admission.inflight < n:
        assert time.monotonic() < deadline, "request never admitted"
        time.sleep(0.005)


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

    @pytest.mark.parametrize("op", ["merge", "topk"])
    def test_nan_before_a_number_is_a_bad_request(self, server, op):
        """``[1.0, NaN, 0.5]`` descends in NumPy's order (NaN last), as
        ``parallel_merge`` reports; a topk over it must not answer."""
        resp = request_sync(
            server.host, server.port,
            {"id": op, "op": op, "a": [1.0, float("nan"), 0.5], "b": [0.25],
             "k": 2},
        )
        assert resp["ok"] is False
        assert resp["error"]["kind"] == "bad-request"

    def test_malformed_json_answered_not_dropped(self, server):
        with ServeClient(server.host, server.port) as client:
            client._sock.sendall(b"{nonsense\n")
            resp = client.recv()
        assert resp["ok"] is False
        assert resp["error"]["kind"] == "bad-request"

    def test_too_deep_json_answered_and_connection_kept(self, server):
        with ServeClient(server.host, server.port) as client:
            client._sock.sendall(b"[" * 100_000 + b"\n")
            resp = client.recv()
            assert client.request({"id": 9, "op": "ping"})["result"] == "pong"
        assert resp["error"]["kind"] == "bad-request"

    @pytest.mark.parametrize("line, bad_id", [
        (b'{"id":1,"op":"sort","data":[' + b"7" * 5000 + b"]}", None),
        (b'{"id":1,"op":"ping","deadline_ms":1' + b"0" * 400 + b"}", 1),
    ], ids=["5000-digit-integer", "deadline-past-float-range"])
    def test_unparsable_number_answered_and_connection_kept(
        self, server, line, bad_id
    ):
        """A merge pipelined before the bad line is still answered, and
        the connection still serves the ping after it.  (A line json
        cannot read has no id to echo.)"""
        with ServeClient(server.host, server.port) as client:
            client._sock.sendall(
                encode_line({"id": 0, "op": "merge", "a": [1], "b": [0]})
                + line + b"\n" + encode_line({"id": 2, "op": "ping"})
            )
            got = {}
            for _ in range(3):
                resp = client.recv()
                got[resp["id"]] = resp
        assert got[0]["result"] == [0, 1]
        assert got[bad_id]["error"]["kind"] == "bad-request"
        assert got[2]["result"] == "pong"

    def test_unexpected_error_costs_only_its_line(
        self, fresh_server, monkeypatch
    ):
        """Whatever answering one line raises, that line gets a 500 and
        the connection keeps the answers around it."""
        from repro.serve import server as server_mod

        parse = server_mod.parse_request

        def parse_or_raise(line, **kwargs):
            if b"boom" in line:
                raise ArithmeticError("boom")
            return parse(line, **kwargs)

        monkeypatch.setattr(server_mod, "parse_request", parse_or_raise)
        with ServeClient(fresh_server.host, fresh_server.port) as client:
            client._sock.sendall(
                encode_line({"id": 0, "op": "merge", "a": [1], "b": [0]})
                + b'{"id":"boom"}\n' + encode_line({"id": 2, "op": "ping"})
            )
            got = [client.recv() for _ in range(3)]
        assert [r["id"] for r in got] == [0, None, 2]
        assert got[1]["error"]["kind"] == "internal"
        assert got[2]["result"] == "pong"
        assert fresh_server.registry.value("serve.errors") == 1

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

        config = ServeConfig(capacity=16, p=2)
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
    """Holding a slot or outliving a deadline needs a slow request: a
    server with ``small_cutover=0`` and a :func:`slow_backend` keeps
    every request on the supervised path for the backend's delay."""

    def test_queue_full_sheds_with_429(self):
        # Capacity 1 + a slow request = the second request must be shed
        # immediately, not queued behind it.
        with ServerThread(ServeConfig(
            capacity=1, small_cutover=0, p=1,
        ), backend=slow_backend(0.5)) as handle:
            with ServeClient(handle.host, handle.port) as c1:
                # Sleeps in the backend, holding the slot.
                c1.send({"id": "hold", "op": "merge", "a": [1], "b": [2]})
                _wait_for_inflight(handle, 1)
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
            capacity=8, small_cutover=0, p=1,
        ), backend=slow_backend(2.0)) as handle:
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
            # Timely: answered at the deadline, not after the 2 s compute.
            assert elapsed < 1.0
            assert handle.registry.value("serve.deadline_misses") == 1

    def test_default_deadline_from_config(self):
        with ServerThread(ServeConfig(
            capacity=8, small_cutover=0, p=1, default_deadline_ms=50.0,
        ), backend=slow_backend(0.5)) as handle:
            resp = request_sync(
                handle.host, handle.port,
                {"id": 1, "op": "merge", "a": [1], "b": [2]},
            )
            assert resp["error"]["kind"] == "deadline"

    def test_inline_request_past_its_deadline_gets_504(self, fresh_server):
        # A 1 us deadline is outlived while the request's 4,000 elements
        # are parsed, so it has passed before the inline compute starts.
        resp = request_sync(
            fresh_server.host, fresh_server.port,
            {"id": 1, "op": "sort", "data": list(range(4_000, 0, -1)),
             "deadline_ms": 0.001},
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == 504
        assert resp["error"]["kind"] == "deadline"
        snapshot = fresh_server.registry.snapshot()
        assert snapshot["serve.deadline_misses"] == 1
        assert "serve.errors" not in snapshot
        assert "serve.responses" not in snapshot

    def test_deadline_not_charged_against_fast_requests(self, server):
        resp = request_sync(
            server.host, server.port,
            {"id": 1, "op": "merge", "a": [1], "b": [2],
             "deadline_ms": 10_000},
        )
        assert resp["ok"]

    def test_ping_bypasses_admission(self):
        with ServerThread(ServeConfig(
            capacity=1, small_cutover=0, p=1,
        ), backend=slow_backend(0.5)) as handle:
            with ServeClient(handle.host, handle.port) as c1:
                c1.send({"id": "hold", "op": "merge", "a": [1], "b": [2]})
                _wait_for_inflight(handle, 1)
                # The data path is saturated; introspection still answers.
                resp = request_sync(handle.host, handle.port,
                                    {"id": "p", "op": "ping"})
                assert resp["ok"]
                resp = request_sync(handle.host, handle.port,
                                    {"id": "m", "op": "metrics"})
                assert resp["ok"]
                assert resp["result"]["serve.inflight"] == 1
                c1.recv()


class _RefusingBackend(Backend):
    """Fails the test if anything dispatches on it."""

    name = "refusing"

    def run_tasks(self, tasks):
        raise AssertionError(f"{len(tasks)} tasks dispatched")


class TestCoalescingInvariant:
    """Small requests never reach the pool: each is computed on the
    event loop, so dispatches stay far below requests (at zero) and
    every request is one compute of its own."""

    def test_dispatches_sublinear_in_requests(self):
        # A backend that fails every batch serves none of them.
        with ServerThread(ServeConfig(capacity=512, p=2),
                          backend=_RefusingBackend()) as handle:
            spec = LoadSpec(
                clients=8, requests_per_client=40, seed=11,
                small_max=256, large_every=10, large_n=1_000,
                topk_every=7, pipeline=8,
            )
            report = run_load_sync(handle.host, handle.port, spec)
            snapshot = handle.registry.snapshot()
        assert report.incorrect == 0
        assert report.ok == report.sent == 320
        assert "exec.dispatches" not in snapshot
        assert "serve.errors" not in snapshot

    def test_batch_size_histogram_recorded(self, fresh_server):
        spec = LoadSpec(clients=4, requests_per_client=20, seed=2,
                        large_every=0, topk_every=0)
        report = run_load_sync(fresh_server.host, fresh_server.port, spec)
        summary = fresh_server.registry.histogram(
            "serve.batch_size"
        ).summary()
        # One observation of 1 per request computed: nothing fuses.
        assert summary["count"] == summary["sum"] == report.sent == 80
        assert summary["max"] == 1

    def test_slo_latency_histogram_fed(self, fresh_server):
        run_load_sync(fresh_server.host, fresh_server.port,
                      LoadSpec(clients=2, requests_per_client=10,
                               large_every=0, topk_every=0))
        snapshot = fresh_server.registry.snapshot()
        assert snapshot["slo.ns_per_elem"]["count"] >= 1
        assert snapshot["serve.latency_ms"]["count"] == 20


class TestConcurrency:
    def test_sustains_64_concurrent_clients(self):
        # The acceptance-criteria scenario: 64 connections, every
        # response bit-identical.
        with ServerThread(ServeConfig(capacity=2048, p=2)) as handle:
            spec = LoadSpec(
                clients=64, requests_per_client=10, seed=42,
                small_max=128, large_every=0, topk_every=5, pipeline=4,
            )
            report = run_load_sync(handle.host, handle.port, spec)
        assert report.sent == 640
        assert report.incorrect == 0
        assert report.ok == report.sent

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

    @given(
        lines=st.lists(st.binary(max_size=40), max_size=12),
        tail=st.binary(max_size=40),
        cuts=st.lists(st.integers(1, 48), min_size=1, max_size=16),
        max_bytes=st.integers(1, 32),
    )
    @settings(max_examples=150, deadline=None)
    def test_line_reader_any_chunking(self, lines, tail, cuts, max_bytes):
        """However the bytes arrive, the reader yields each line (with
        its newline) or an oversize flag for it, then the unterminated
        tail; and whenever it reports a whole line buffered, readline
        returns without waiting."""
        lines = [line.replace(b"\n", b"") for line in lines]
        tail = tail.replace(b"\n", b"")
        payload = b"".join(line + b"\n" for line in lines) + tail
        expected = [
            (b"", True) if len(line) > max_bytes else (line + b"\n", False)
            for line in lines
        ]
        if tail:
            expected.append(
                (b"", True) if len(tail) > max_bytes else (tail, False))

        async def feed(reader):
            pos, k = 0, 0
            while pos < len(payload):
                step = cuts[k % len(cuts)]
                reader.feed_data(payload[pos:pos + step])
                pos, k = pos + step, k + 1
                await asyncio.sleep(0)
            reader.feed_eof()

        async def go():
            reader = asyncio.StreamReader()
            feeder = asyncio.ensure_future(feed(reader))
            lines_ = _LineReader(reader, max_bytes)
            out = []
            while True:
                if lines_.has_line():
                    coro = lines_.readline()
                    with pytest.raises(StopIteration) as done:
                        coro.send(None)  # finishes without suspending
                    item = done.value.value
                else:
                    item = await lines_.readline()
                if item[0] is None:
                    break
                out.append(item)
            await feeder
            return out

        assert asyncio.run(go()) == expected

    def test_oversize_line_gets_typed_413_and_connection_survives(self):
        with ServerThread(ServeConfig(
            capacity=8, max_line_bytes=4096,
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


def _merge_body(rng: np.random.Generator, n: int) -> tuple[bytes, list]:
    """A merge request line without its id (``'"op":...}\\n'``) and its
    expected result, for ``b'{"id":%d,' % i + body``."""
    a = np.sort(rng.integers(-10**6, 10**6, n))
    b = np.sort(rng.integers(-10**6, 10**6, n))
    body = encode_line({"op": "merge", "a": a.tolist(), "b": b.tolist()})
    return body[1:], reference_merge(a, b).tolist()


def _read_responses(sock: socket.socket, n: int) -> dict:
    """``n`` response lines from ``sock``, keyed by id."""
    got = {}
    with sock.makefile("rb") as f:
        for _ in range(n):
            resp = json.loads(f.readline())
            got[resp["id"]] = resp
    return got


class TestWritePath:
    """Responses computed on the loop leave in one write per read batch,
    before the handler waits for the peer; a peer that stops reading
    pauses its own connection only."""

    @pytest.fixture()
    def writes(self, monkeypatch):
        """Every ``StreamWriter.write`` as ``(bytes, buffered after)``."""
        seen = []
        write = asyncio.StreamWriter.write

        def spy(writer, data):
            write(writer, data)
            seen.append((bytes(data), writer.transport.get_write_buffer_size()))

        monkeypatch.setattr(asyncio.StreamWriter, "write", spy)
        return seen

    def test_pipelined_small_requests_share_writes(self, writes):
        k = 64
        with ServerThread(ServeConfig(capacity=256, p=2)) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"".join(
                    encode_line({"id": i, "op": "merge", "a": [i],
                                 "b": [i + 1]})
                    for i in range(k)))
                got = _read_responses(sock, k)
        assert {i: r["result"] for i, r in got.items()} == {
            i: [i, i + 1] for i in range(k)}
        assert 1 <= len(writes) < k
        assert b"".join(data for data, _ in writes).count(b"\n") == k

    def test_a_lone_request_is_answered_without_more_input(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            for i in range(3):  # the connection stays open and idle
                sock.sendall(encode_line(
                    {"id": i, "op": "merge", "a": [1], "b": [0]}))
                assert _read_responses(sock, 1)[i]["result"] == [0, 1]

    def test_a_large_request_in_a_pipeline_is_answered_by_id(self):
        rng = np.random.default_rng(8)
        bodies = [_merge_body(rng, n) for n in (3, 700, 5, 2_000, 0, 9)]
        with ServerThread(ServeConfig(
            capacity=64, p=2, small_cutover=1 << 10,
        )) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=60.0) as sock:
                sock.sendall(b"".join(
                    b'{"id":%d,' % i + body
                    for i, (body, _) in enumerate(bodies)))
                got = _read_responses(sock, len(bodies))
        assert {i: r["result"] for i, r in got.items()} == {
            i: want for i, (_, want) in enumerate(bodies)}

    def test_a_peer_that_stops_reading_is_paused(self, writes):
        """About 15 MB of responses to a peer that reads none of them:
        past the kernel's socket buffers the server stops answering it,
        with little held in its own transport, and keeps serving others;
        once the peer reads, every response arrives."""
        body, want = _merge_body(np.random.default_rng(9), 1_500)
        n = 600
        payload = b"".join(b'{"id":%d,' % i + body for i in range(n))
        with ServerThread(ServeConfig(capacity=64, p=2)) as handle:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 14)
            sock.settimeout(60.0)
            sock.connect((handle.host, handle.port))
            with sock:
                sender = threading.Thread(target=sock.sendall,
                                          args=(payload,), daemon=True)
                sender.start()
                answered = -1
                while answered != handle.registry.value("serve.responses"):
                    answered = handle.registry.value("serve.responses")
                    time.sleep(0.5)
                assert answered < n
                resp = request_sync(handle.host, handle.port,
                                    {"id": "other", "op": "merge",
                                     "a": [1], "b": [2]})
                assert resp["result"] == [1, 2]
                got = _read_responses(sock, n)
                sender.join(timeout=30.0)
        assert sorted(got) == list(range(n))
        assert all(r["result"] == want for r in got.values())
        # The transport holds at most a read batch's answers past its
        # 64 KiB high-water mark.
        assert max(buffered for _, buffered in writes) < 1 << 20


class TestServeCLI:
    def test_no_control_still_parses(self):
        """Launch scripts pass ``--no-control``; the server runs no
        control loop, so the flag is accepted and changes nothing."""
        from repro.__main__ import _build_parser

        ns = _build_parser()[0].parse_args(
            ["serve", "--port", "0", "--no-control"])
        assert ns.command == "serve" and ns.port == 0 and ns.no_control

    @pytest.mark.parametrize("args", [
        ["--control-interval", "1"], ["--slo", "slo.json"],
        ["--backend", "threads"], ["--max-batch", "4"],
        ["--window-ms", "1"],
    ])
    def test_removed_options_are_rejected(self, args, capsys):
        from repro.__main__ import _build_parser

        with pytest.raises(SystemExit) as exc:
            _build_parser()[0].parse_args(["serve", "--port", "0", *args])
        assert exc.value.code == 2

    def test_option_defaults_are_serve_config_defaults(self):
        """The CLI sets no serve default of its own but the port, so a
        bare ``serve`` runs the config every in-process server runs."""
        from dataclasses import replace

        from repro.__main__ import _build_parser, _serve_config

        ns = _build_parser()[0].parse_args(["serve"])
        assert _serve_config(ns) == replace(ServeConfig(), port=7207)
        assert ServeConfig().reprobe_interval_s == 1.0

    def test_every_option_sets_its_serve_config_field(self):
        from repro.__main__ import _build_parser, _serve_config

        ns = _build_parser()[0].parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0", "--p", "3",
            "--capacity", "9", "--small-cutover", "100",
            "--deadline-ms", "40",
            "--drain-timeout", "2", "--metrics-snapshot", "m.json",
            "--reprobe-interval", "0", "--no-control",
        ])
        assert _serve_config(ns) == ServeConfig(
            host="0.0.0.0", port=0, p=3, capacity=9,
            small_cutover=100, default_deadline_ms=40.0,
            drain_timeout_s=2.0, metrics_snapshot="m.json",
            reprobe_interval_s=0.0)

    def test_other_commands_do_not_import_the_serve_stack(self):
        import repro

        code = ("import sys, repro.__main__; "
                "print('repro.serve' in sys.modules)")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"

    def test_servers_reprobe_in_the_background_by_default(self):
        with ServerThread(ServeConfig()) as handle:
            assert handle.server._reprobe_task is not None
        with ServerThread(ServeConfig(reprobe_interval_s=0)) as handle:
            assert handle.server._reprobe_task is None

    def test_the_pool_level_is_not_configurable(self):
        """The server runs in-memory work, which runs in-process, so its
        chain's pool level is always the shared thread pool."""
        with pytest.raises(TypeError):
            ServeConfig(backend="processes")

    def test_serve_starts_without_the_experiment_registry(self):
        """``serve`` loads neither the experiment registry nor SciPy:
        they load only for ``run`` and the listing."""
        import repro

        code = ("import sys, repro.__main__ as cli; "
                "cli._serve_config(cli._PARSER.parse_args(['serve'])); "
                "print([m for m in ('repro.experiments', 'scipy') "
                "if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "[]"
