"""Network chaos through the live server: the wire lies, answers don't.

:mod:`repro.resilience.netchaos` sits a seeded fault-injecting TCP
proxy between the load generator and a real :class:`ServerThread`,
the arrangement ``benchmarks/serve_smoke.py --chaos`` soaks.  The gate
everywhere: **no response that arrives is wrong** (the load generator
checks each one against the serial oracle), and nothing hangs — every
read is bounded by ``recv_timeout_s``, so a lost frame costs a counted
stall or disconnect, never a wedged test.

Each scenario also asserts ``proxy.stats`` recorded the faults it was
configured to fire — a chaos test that passes because the chaos never
happened is vacuous.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.errors import InputError
from repro.resilience import ChaosProxy, ChaosProxyThread, ChaosSpec
from repro.serve import ServeConfig, ServerThread
from repro.workloads.loadgen import LoadReport, LoadSpec, run_load_sync

_CONFIG = ServeConfig(capacity=128, p=2)

#: Four connections of twenty requests, one in flight each; a lost
#: frame stalls a reader for at most a second.
_LOAD = LoadSpec(clients=4, requests_per_client=20, seed=7, small_max=64,
                 large_every=0, topk_every=5, pipeline=1,
                 recv_timeout_s=1.0)


def _soak(spec: ChaosSpec | None = None) -> tuple[LoadReport, dict[str, int]]:
    """Run :data:`_LOAD` through a chaos proxy; return the report and
    the faults the proxy fired."""
    with ServerThread(_CONFIG) as srv, \
            ChaosProxyThread(srv.host, srv.port, spec=spec) as proxy:
        report = run_load_sync(proxy.host, proxy.port, _LOAD)
        stats = dict(proxy.stats)
    assert report.incorrect == 0
    assert report.ok > 0
    return report, stats


def _untouched(report: LoadReport) -> None:
    """Every request answered correctly, none lost."""
    assert report.ok == report.sent == _LOAD.clients * _LOAD.requests_per_client
    assert report.stalls == report.disconnects == 0


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(InputError):
            ChaosSpec(reset_rate=1.5)
        with pytest.raises(InputError):
            ChaosSpec(corrupt_rate=-0.1)
        with pytest.raises(InputError):
            ChaosSpec(delay_s=-1.0)
        with pytest.raises(InputError):
            ChaosSpec(slowloris_chunk=0)

    def test_quiet_spec_is_valid(self):
        spec = ChaosSpec()
        assert spec.reset_rate == 0.0


class TestQuietProxy:
    def test_passthrough_preserves_every_byte(self):
        """With all rates at zero the proxy must be invisible."""
        report, stats = _soak()
        _untouched(report)
        assert all(count == 0 for count in stats.values())


class TestUpstreamCorruption:
    def test_corrupted_requests_become_typed_400s_never_wrong_results(self):
        """NUL-corrupted request frames are answered with a typed 400
        under the server's null id, which the reader cannot match, so
        the request stalls; an ``ok`` response is always oracle-exact."""
        report, stats = _soak(ChaosSpec(seed=101, corrupt_rate=0.12))
        assert stats["corruptions"] > 0  # the chaos actually fired
        assert report.stalls + report.bad_requests + report.unmatched > 0


class TestResets:
    def test_connection_resets_are_survived_by_reconnecting(self):
        """A reset drops one connection and what it had in flight; the
        server keeps answering the others."""
        report, stats = _soak(ChaosSpec(seed=7, reset_rate=0.06))
        assert stats["resets"] > 0
        assert report.disconnects > 0

    def test_a_duration_soak_keeps_sending_after_a_reset(self):
        """A duration soak reopens each reset connection and sends on
        until its time is up, not just until its first fault."""
        spec = replace(_LOAD, duration_s=1.0)
        with ServerThread(_CONFIG) as srv, \
                ChaosProxyThread(srv.host, srv.port,
                                 spec=ChaosSpec(seed=7, reset_rate=0.06)) \
                as proxy:
            report = run_load_sync(proxy.host, proxy.port, spec)
            resets = proxy.stats["resets"]
        assert resets > 0 and report.disconnects > 0
        assert report.reconnects > 0
        assert report.incorrect == 0
        assert report.elapsed_s >= spec.duration_s
        assert report.sent > spec.clients * spec.requests_per_client


class TestSlowNetwork:
    def test_delays_and_slowloris_only_cost_time(self):
        """Latency faults reorder nothing and corrupt nothing: every
        request completes correctly, just slower."""
        report, stats = _soak(ChaosSpec(
            seed=3, delay_rate=0.3, delay_s=0.01, slowloris_rate=0.3,
            slowloris_chunk=16, slowloris_delay_s=0.001))
        assert stats["delays"] + stats["slowloris"] > 0
        _untouched(report)


class TestTruncation:
    def test_truncated_frames_never_parse_into_wrong_answers(self):
        report, stats = _soak(ChaosSpec(seed=29, truncate_rate=0.08))
        assert stats["truncations"] > 0
        assert report.disconnects + report.stalls > 0


class TestTeardown:
    def test_stop_with_live_connections_logs_nothing(self):
        """Stopping a proxy that still relays open connections ends
        each handler without an exception reaching the event loop."""
        calls: list[dict] = []

        async def scenario() -> None:
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: calls.append(context))

            async def idle(reader, writer):  # reads, never answers
                await reader.read()
                writer.close()

            upstream = await asyncio.start_server(idle, "127.0.0.1", 0)
            port = upstream.sockets[0].getsockname()[1]
            proxy = await ChaosProxy("127.0.0.1", port).start()
            writers = []
            for _ in range(3):
                _reader, writer = await asyncio.open_connection(
                    proxy.host, proxy.port)
                writer.write(b'{"id": 1, "op": "ping"}\n')
                await writer.drain()
                writers.append(writer)
            while proxy.connections < len(writers):
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # both pumps of each are reading
            await proxy.stop()
            for writer in writers:
                writer.close()
            upstream.close()
            await upstream.wait_closed()
            await asyncio.sleep(0.05)  # let any stray callbacks run

        # A teardown that waits on its own live connections fails here
        # instead of hanging the run.
        asyncio.run(asyncio.wait_for(scenario(), 10))
        assert calls == []
