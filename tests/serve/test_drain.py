"""Graceful drain: stop accepting, finish everything admitted, prove it.

The invariant under test — the serve plane's version of Theorem 14's
"no partial results" — is that a drain **loses zero accepted
requests**: every request the admission ledger let in is answered
(correctly) before the process exits, late arrivals get a typed 503
``draining`` instead of a hang or a reset, and the final metrics
snapshot survives for ``doctor --metrics-from``.

Two tiers: in-process (``ServerThread.drain`` overlapping live load)
and subprocess (a real ``python -m repro serve`` killed with SIGTERM
mid-soak).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.control.doctor import load_metrics_snapshot
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.workloads.loadgen import oracle

_CONFIG_KW = dict(capacity=128, p=2, drain_timeout_s=10.0)


def _merge_req(rid: str, n: int = 64) -> dict:
    return {"id": rid, "op": "merge",
            "a": list(range(n)), "b": list(range(0, 2 * n, 2))}


class TestDrainUnderLoad:
    def test_zero_accepted_requests_lost(self, tmp_path):
        """Clients hammer the server while another thread drains it:
        every ``ok`` response must match the oracle, every rejection
        must be a typed ``draining``, and nothing may just vanish."""
        snap = tmp_path / "final.json"
        config = ServeConfig(metrics_snapshot=str(snap), **_CONFIG_KW)
        outcomes: list[tuple[dict, dict]] = []
        transport_errors = 0
        lock = threading.Lock()
        stop = threading.Event()

        def pump(idx: int) -> None:
            nonlocal transport_errors
            try:
                with ServeClient(host, port, timeout=10.0) as client:
                    i = 0
                    while not stop.is_set():
                        req = _merge_req(f"p{idx}-{i}")
                        response = client.request(req)
                        with lock:
                            outcomes.append((req, response))
                        i += 1
            except (ConnectionError, OSError, ValueError):
                with lock:
                    transport_errors += 1

        with ServerThread(config) as handle:
            host, port = handle.host, handle.port
            threads = [threading.Thread(target=pump, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.15)  # load is in full flight
            clean = handle.drain()
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            snapshot = handle.registry.snapshot()

        assert clean, "drain budget expired with work in flight"
        ok = rejected = 0
        for req, response in outcomes:
            if response.get("ok"):
                assert response["result"] == oracle(req), req["id"]
                ok += 1
            else:
                assert response["error"]["kind"] == "draining", response
                assert response["error"]["code"] == 503
                rejected += 1
        assert ok > 0  # the load actually ran before the drain
        # accounting closes: every outcome is ok or typed, and the
        # ledger agrees nothing was admitted-but-unanswered
        assert ok + rejected == len(outcomes)
        assert snapshot["serve.drains"] == 1
        assert snapshot.get("admission.inflight", 0) == 0

        # the final snapshot is doctor-readable post-mortem
        metrics = load_metrics_snapshot(str(snap))
        assert metrics["serve.drains"] == 1
        doc = json.loads(snap.read_text())
        assert doc["schema"] == "repro-serve-metrics/1"
        assert doc["draining"] is True

    def test_late_arrivals_get_typed_503_and_ops_still_answer(self):
        with ServerThread(ServeConfig(**_CONFIG_KW)) as handle:
            with ServeClient(handle.host, handle.port,
                             timeout=10.0) as client:
                # connection established *before* the drain begins
                assert client.request(_merge_req("warm"))["ok"]
                assert handle.drain()
                late = client.request(_merge_req("late"))
                assert not late["ok"]
                assert late["error"]["kind"] == "draining"
                assert late["error"]["code"] == 503
                # the post-mortem scrape path stays open
                assert client.request({"id": "p", "op": "ping"})["ok"]
                metrics = client.request({"id": "m", "op": "metrics"})
                assert metrics["ok"]
                assert metrics["result"]["serve.drain_rejects"] >= 1
            snapshot = handle.registry.snapshot()
        assert snapshot["serve.drain_rejects"] >= 1

    def test_drain_is_idempotent(self):
        with ServerThread(ServeConfig(**_CONFIG_KW)) as handle:
            assert handle.drain()
            assert handle.drain()  # second call: still clean, no double count
            assert handle.registry.snapshot()["serve.drains"] == 1

    def test_new_connections_refused_after_drain(self):
        with ServerThread(ServeConfig(**_CONFIG_KW)) as handle:
            assert handle.drain()
            with pytest.raises(OSError):
                ServeClient(handle.host, handle.port, timeout=1.0)


def _read_banner(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """Read the ``serving on host:port`` line without risking a hang."""
    deadline = time.monotonic() + timeout
    line = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if not ready:
            if proc.poll() is not None:
                break
            continue
        ch = os.read(fd, 1)
        if not ch:
            break
        line += ch
        if ch == b"\n":
            text = line.decode()
            if "serving on" in text:
                return text
            line = b""
    raise AssertionError(f"no serve banner (last: {line!r})")


class TestSigtermSubprocess:
    def test_sigterm_mid_soak_drains_and_exits_zero(self, tmp_path):
        """A real ``python -m repro serve`` process, killed with SIGTERM
        while large sorts are in flight, must answer what it accepted,
        write the snapshot, print the drain trail, and exit 0."""
        snap = tmp_path / "final.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--drain-timeout", "15",
             "--metrics-snapshot", str(snap)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, cwd=Path(__file__).resolve().parents[2],
        )
        try:
            banner = _read_banner(proc)
            port = int(banner.rsplit(":", 1)[1])
            requests = [
                {"id": f"big-{i}", "op": "sort",
                 "data": list(range(200_000, 0, -1))}
                for i in range(4)
            ]
            with ServeClient("127.0.0.1", port, timeout=60.0) as client:
                for req in requests:  # pipelined: all in flight at once
                    client.send(req)
                # Generous admit window: on a loaded machine the server
                # must still have read (and admitted) every pipelined
                # line before the signal lands, or a not-yet-accepted
                # request could legitimately be dropped by the drain.
                time.sleep(0.3)
                proc.send_signal(signal.SIGTERM)
                answered = {}
                for _ in requests:
                    response = client.recv()
                    answered[response.get("id")] = response
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # every pipelined request was answered: correctly, or with a
        # typed draining rejection (admission raced the signal) — never
        # dropped, never wrong
        assert len(answered) == len(requests)
        for req in requests:
            response = answered[req["id"]]
            if response.get("ok"):
                assert response["result"] == oracle(req), req["id"]
            else:
                assert response["error"]["kind"] == "draining"

        text = out.decode()
        assert proc.returncode == 0, text
        assert "draining" in text
        assert "drain complete" in text
        assert "Traceback" not in text

        # the snapshot landed and is doctor-readable
        metrics = load_metrics_snapshot(str(snap))
        assert metrics["serve.drains"] == 1
        assert metrics.get("admission.inflight", 0) == 0
