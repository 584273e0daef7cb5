"""The ``serve_mix`` workload: the TCP front door under a request mix.

Each server is ``python -m repro serve --port 0 --p 2 --no-control`` in
its own process.  The benchmark process drives it over two connections
in two ways:

* capacity (end-to-end pass): a closed loop keeps 16 requests in flight
  on each connection until a quarter of the request cycle is answered;
  the same requests answered inline with NumPy are the reference;
* latency (per-layer pass): an open loop sends a fixed schedule, evenly
  spaced at the offered rate, whether or not earlier requests were
  answered, and times every request from the moment it was due.

Request lines are encoded and their ``oracle()`` results computed before
any timed window; responses are matched by id while the load runs and
decoded and checked afterwards.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (P, ROOT, cached_thresholds, child_env, median, peak_rss_mb,
                    percentile, reported, share)
from layers import SORT_METRICS, SPM_METRICS, Batch, Window, account

BENCH = Path(__file__).resolve().parent
#: Offered rate at which latency is reported (requests per second).
REF_RATE = 300.0
#: Latency limit on the 99th percentile for ``max_rps_at_slo``.
SLO_P99_MS = 50.0
CONNECTIONS = 2
COLD_STARTS = 5
#: Distinct requests; the schedule cycles through them.
CYCLE = 1000
BANNER = re.compile(r"serving on (\S+):(\d+)")
#: Time allowed for the last responses of a window to arrive.
DRAIN_S = 10.0
#: Requests in flight per connection when measuring capacity.
SATURATION_DEPTH = 16
#: Requests a fresh server answers before its pairs are timed: enough to
#: take every path of the mix (coalesced merges, top-k, a large sort) once.
WARM_REQUESTS = 100
#: Requests per timed pair (a quarter of the cycle, about 0.3 s of work on
#: each side).  The host's speed swings by half for seconds at a time; the
#: shorter the pair, the more often both of its halves see the same speed.
PAIR_REQUESTS = 250


class Server:
    """One server process, started and answering a ``ping`` on return."""

    def __init__(self, workdir: Path, probe_out: Path | None = None) -> None:
        if probe_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(BENCH / "serve_traced.py"),
                   "--probe-out", str(probe_out)]
        cmd += ["--port", "0", "--p", str(P), "--no-control"]
        self.env = child_env(workdir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=self.env, cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = BANNER.search(line)
            if match is None:
                raise RuntimeError(f"server printed no banner (got {line!r})")
            self.host, self.port = match.group(1), int(match.group(2))
            if self.request({"id": 0, "op": "ping"}).get("result") != "pong":
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def request(self, payload: dict) -> dict:
        from repro.serve.client import request_sync

        return request_sync(self.host, self.port, payload)

    def metrics(self) -> dict:
        return self.request({"id": "m", "op": "metrics"})["result"]

    def autotune(self) -> dict | None:
        """The thresholds the server calibrated (on its first large request)."""
        return cached_thresholds(self.env)

    def stop(self) -> None:
        """SIGTERM drains the server; wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclass(slots=True)
class Sent:
    base: int  #: index into the request cycle
    due: float
    sent: float
    recv: float | None = None
    raw: bytes | None = None


async def _open_loop(host: str, port: int, bodies: list[bytes], rate: float,
                     duration: float, first: int) -> list[Sent]:
    n = max(1, int(rate * duration))
    conns = [await asyncio.open_connection(host, port, limit=1 << 27)
             for _ in range(CONNECTIONS)]
    log: list[Sent | None] = [None] * n
    pending = n
    all_in = asyncio.Event()

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal pending
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            # Responses begin {"id":<int>, — parse only the id in the window.
            k = int(line[6:line.index(b",", 6)]) - first
            log[k].recv, log[k].raw = now, line
            pending -= 1
            if pending == 0:
                all_in.set()

    readers = [asyncio.create_task(read(r)) for r, _ in conns]
    try:
        start = time.perf_counter() + 0.005
        k = 0
        while k < n:
            now = time.perf_counter()
            while k < n and start + k / rate <= now:
                writer = conns[k % CONNECTIONS][1]
                writer.writelines((b'{"id":%d,' % (first + k), bodies[k % len(bodies)]))
                log[k] = Sent(k % len(bodies), start + k / rate, now)
                k += 1
            if k < n:
                await asyncio.sleep(start + k / rate - time.perf_counter())
        try:
            await asyncio.wait_for(all_in.wait(), DRAIN_S)
        except asyncio.TimeoutError:
            pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return log


async def _closed_loop(host: str, port: int, bodies: list[bytes], start: int, count: int,
                       depth: int, first: int) -> tuple[list[Sent], float]:
    """Send ``bodies[start:start + count]`` once each, keeping ``depth``
    requests in flight on each connection; returns the log and the seconds
    from the first send to the last response."""
    conns = [await asyncio.open_connection(host, port, limit=1 << 27)
             for _ in range(CONNECTIONS)]
    log: list[Sent | None] = [None] * count
    sent = 0

    async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal sent
        inflight = 0
        while True:
            while inflight < depth and sent < count:
                k, sent = sent, sent + 1
                now = time.perf_counter()
                log[k] = Sent(start + k, now, now)
                writer.writelines((b'{"id":%d,' % (first + k), bodies[start + k]))
                inflight += 1
            if inflight == 0:
                return
            line = await asyncio.wait_for(reader.readline(), DRAIN_S)
            if not line:
                return
            k = int(line[6:line.index(b",", 6)]) - first
            log[k].recv, log[k].raw = time.perf_counter(), line
            inflight -= 1

    t0 = time.perf_counter()
    try:
        for outcome in await asyncio.gather(*(client(r, w) for r, w in conns),
                                            return_exceptions=True):
            # A stalled connection times out; its unanswered requests stay
            # in the log as lost.
            if isinstance(outcome, BaseException) and not isinstance(
                    outcome, asyncio.TimeoutError):
                raise outcome
        elapsed = time.perf_counter() - t0
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return log, elapsed


@dataclass(slots=True)
class Scored:
    """A window's requests, decoded and checked against the oracle."""

    latency_ms: list[float] = field(default_factory=list)  #: failed ones are inf
    server_ms: list[float] = field(default_factory=list)
    wire_ms: list[float] = field(default_factory=list)  #: latency - server_ms
    late_ms: list[float] = field(default_factory=list)
    ok: int = 0
    wrong: int = 0
    not_ok: int = 0
    shed: int = 0
    lost: int = 0
    elements: int = 0

    @property
    def failed(self) -> int:
        return self.wrong + self.not_ok + self.lost

    def meets_slo(self) -> bool:
        """p99 within the limit, nothing failed, and no growing backlog
        (the last quarter's median latency at most twice the first's)."""
        lat = self.latency_ms
        q = max(1, len(lat) // 4)
        return (self.failed == 0
                and percentile(lat, 0.99) <= SLO_P99_MS
                and median(lat[-q:]) <= 2 * median(lat[:q]))


class ServeMix:
    """Small merges (0-256 elements per side), every 10th request a top-k
    and every 100th a sort of 2^16, from ``loadgen.build_requests``."""

    name = "serve_mix"
    not_measured = SPM_METRICS | SORT_METRICS | {"framework.p1_overhead_ratio"}

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        from repro.serve.protocol import encode_line
        from repro.workloads.loadgen import LoadSpec, build_requests, oracle

        self.workdir = workdir
        self.samples = 100 if quick else 1000  # per ladder rung: 10 beyond p99
        spec = LoadSpec(clients=CONNECTIONS, requests_per_client=CYCLE // CONNECTIONS,
                        seed=seed, small_min=0, small_max=256, topk_every=10,
                        large_every=100, large_n=1 << (10 if quick else 16))
        requests = [r for c in range(CONNECTIONS) for r in build_requests(spec, c)]
        # The id goes in front at send time: '{"id":N,' + body[1:].
        self.bodies = [encode_line({k: v for k, v in r.items() if k != "id"})[1:]
                       for r in requests]
        self.oracles = [np.asarray(oracle(r), dtype=np.int64) for r in requests]
        self._next_id = 1
        # Keep the request tables out of the collector's sight: a full
        # collection walking a million list items in this process would
        # stall the generator and the inline reference at random moments.
        del requests
        gc.collect()
        gc.freeze()

    def window(self, server: Server, rate: float, duration: float) -> Scored:
        """Open loop at ``rate`` for ``duration`` seconds, scored."""
        first, self._next_id = self._next_id, self._next_id + int(rate * duration) + 1
        return self.score(asyncio.run(_open_loop(
            server.host, server.port, self.bodies, rate, duration, first)))

    def saturate(self, server: Server, start: int, count: int) -> tuple[Scored, float]:
        """One pass over ``count`` requests of the cycle from ``start`` with
        ``SATURATION_DEPTH`` requests in flight per connection; returns the
        scored requests and the seconds the server took."""
        first, self._next_id = self._next_id, self._next_id + count + 1
        log, elapsed = asyncio.run(_closed_loop(
            server.host, server.port, self.bodies, start, count, SATURATION_DEPTH, first))
        return self.score(log), elapsed

    def score(self, log: list[Sent]) -> Scored:
        """Decode every response and check it against the oracle."""
        scored = Scored()
        for s in log:
            if s is not None:
                scored.late_ms.append((s.sent - s.due) * 1e3)
            if s is None or s.raw is None:  # never sent, or never answered
                scored.lost += 1
                scored.latency_ms.append(math.inf)
            elif not (resp := json.loads(s.raw)).get("ok"):
                scored.not_ok += 1
                scored.shed += (resp.get("error") or {}).get("kind") == "shed"
                scored.latency_ms.append(math.inf)
            else:
                scored.wrong += not np.array_equal(
                    np.asarray(resp["result"], dtype=np.int64), self.oracles[s.base])
                scored.ok += 1
                latency = (s.recv - s.due) * 1e3
                scored.latency_ms.append(latency)
                scored.server_ms.append(resp["elapsed_ms"])
                scored.wire_ms.append(latency - resp["elapsed_ms"])
                scored.elements += resp["n"]
        return scored

    @staticmethod
    def _count(tally, scored: Scored, overload: bool = False) -> None:
        """Add a window to the tally.  A wrong answer always fails; a shed or
        lost request fails only at the reference rate, not on a ladder rung
        sent to find where the server overloads."""
        failed = scored.wrong if overload else scored.failed
        tally.attempted += len(scored.latency_ms)
        tally.failed += failed
        if failed:
            tally.errors.append(f"{scored.wrong} wrong, {scored.not_ok} non-ok and "
                                f"{scored.lost} lost responses")

    def max_rps_at_slo(self, server: Server, reference: Scored, budget_s: float,
                       tally) -> tuple[float, list]:
        """Highest offered rate meeting the limit: a geometric ladder (x1.5)
        from the reference rate, then bisection until the bracket is within
        5%.  Rungs beyond capacity may shed; only wrong answers count as
        failures there."""
        deadline = time.perf_counter() + budget_s
        rungs = [(REF_RATE, reference.meets_slo())]

        def passes(rate: float) -> bool:
            scored = self.window(server, rate, self.samples / rate)
            self._count(tally, scored, overload=True)
            rungs.append((rate, scored.meets_slo()))
            return rungs[-1][1]

        lo, hi = (REF_RATE, None) if rungs[0][1] else (0.0, REF_RATE)
        while hi is None and time.perf_counter() < deadline:
            if passes(lo * 1.5):
                lo *= 1.5
            else:
                hi = lo * 1.5
        while lo == 0.0 and time.perf_counter() < deadline:
            hi /= 1.5
            if passes(hi):
                lo = hi
        while hi is not None and hi > lo * 1.05 and time.perf_counter() < deadline:
            mid = math.sqrt(lo * hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return lo, rungs

    def codec_seconds(self) -> float:
        """Mean parse + encode time per request of the mix, in this process."""
        from repro.serve.protocol import ok_response, parse_request

        lines = [b'{"id":%d,' % i + body for i, body in enumerate(self.bodies)]
        passes = []
        for _ in range(3):
            t0 = time.perf_counter()
            for i, line in enumerate(lines):
                parse_request(line)
                ok_response(i, self.oracles[i])
            passes.append((time.perf_counter() - t0) / len(lines))
        return median(passes)

    def inline_seconds(self, start: int, count: int) -> float:
        """``count`` requests of the cycle from ``start`` answered inline by
        one thread, NumPy + JSON: decode each line, compute ``oracle()``,
        encode the response."""
        from repro.serve.protocol import encode_line
        from repro.workloads.loadgen import oracle

        lines = [b'{"id":%d,' % i + self.bodies[i] for i in range(start, start + count)]
        t0 = time.perf_counter()
        for line in lines:
            request = json.loads(line)
            encode_line({"id": request["id"], "ok": True, "result": oracle(request)})
        return time.perf_counter() - t0

    # -- the two passes ----------------------------------------------------

    def end_to_end(self, seconds: float, tally) -> tuple[dict, dict]:
        """Five cold-started servers, each timed to its first answer, warmed
        up with the first ``WARM_REQUESTS`` of the cycle, then, for its fifth
        of the run, alternately serving the next ``PAIR_REQUESTS`` of the
        cycle saturated and answering the same requests inline (the NumPy
        reference), so both halves of a pair do the same work on the same
        machine state."""
        setup, rss, ratios, served, tunings = [], [], [], [], []
        for _ in range(COLD_STARTS):
            server = Server(self.workdir)
            try:
                setup.append(server.setup_s)
                self._count(tally, self.saturate(server, 0, WARM_REQUESTS)[0])
                deadline = time.perf_counter() + seconds / COLD_STARTS
                start = 0
                while True:
                    busy, server_s = self.saturate(server, start, PAIR_REQUESTS)
                    self._count(tally, busy)
                    ratios.append(self.inline_seconds(start, PAIR_REQUESTS) / server_s)
                    served.append(busy.elements / server_s / 1e6)
                    start = (start + PAIR_REQUESTS) % CYCLE
                    if time.perf_counter() >= deadline:
                        break
                rss.append(peak_rss_mb(server.proc.pid))
                tunings.append(server.autotune())
            finally:
                server.stop()
        metrics = {
            "setup_s": median(setup),
            "peak_rss_mb": median(rss),
            "speedup_vs_numpy": median(ratios),
        }
        detail = {
            "samples": {"setup_s": len(setup), "peak_rss_mb": len(rss),
                        "speedup_vs_numpy": len(ratios)},
            "reported": {
                "throughput_melem_s": reported(median(served), "Melem/s", len(served)),
            },
            "autotune": {"servers": tunings},
        }
        return metrics, detail

    def per_layer(self, seconds: float, tally) -> tuple[dict, dict]:
        """One plain server at the reference rate, then the rate ladder on
        it; one server under the layer probe at the reference rate."""
        server = Server(self.workdir)
        try:
            plain = self.window(server, REF_RATE, seconds / 4)
            self._count(tally, plain)
            snap = server.metrics()
            max_rps, rungs = self.max_rps_at_slo(server, plain, seconds / 2, tally)
            tunings = [server.autotune()]
        finally:
            server.stop()

        probe_out = self.workdir / "serve-probe.json"
        server = Server(self.workdir, probe_out)
        try:
            before = server.metrics()
            traced = self.window(server, REF_RATE, seconds / 4)
            self._count(tally, traced)
            after = server.metrics()
            tunings.append(server.autotune())
        finally:
            server.stop()
        with open(probe_out) as f:
            probe = json.load(f)
        seen = Window(probe["partition_s"], [Batch(*b) for b in probe["batches"]])

        metrics = account(traced.ok, sum(traced.server_ms) / 1e3, traced.elements, seen)
        # Recorded, not enforced: the server's exec.dispatches counts a large
        # request's dispatches as a delta of the shared backend's counter,
        # which also picks up coalesced windows dispatched meanwhile.
        checks = {"probe_batches": len(seen.batches),
                  "exec_dispatches": after.get("exec.dispatches", 0)
                  - before.get("exec.dispatches", 0)}
        metrics["partition.probes"] = (after.get("merge.search_probes", 0)
                                       - before.get("merge.search_probes", 0)) / traced.ok
        metrics["trace.overhead_pct"] = (
            median(traced.latency_ms) / median(plain.latency_ms) - 1.0) * 100.0
        batch_size = snap["serve.batch_size"]
        metrics.update({
            "serve.codec_us_per_req": self.codec_seconds() * 1e6,
            "serve.server_ms_p50": median(plain.server_ms),
            "serve.server_ms_p99": percentile(plain.server_ms, 0.99),
            "serve.wire_ms_p50": median(plain.wire_ms),
            "serve.batch_size_mean": share(batch_size["sum"], batch_size["count"]),
            "serve.dispatches_per_req": share(checks["exec_dispatches"], traced.ok),
            "serve.shed": plain.shed + traced.shed,
            "loadgen.late_p99_ms": percentile(plain.late_ms, 0.99),
        })
        n = len(plain.latency_ms)
        detail = {
            "samples": {"untraced_requests": n, "traced_requests": len(traced.latency_ms)},
            "checks": checks,
            "reported": {
                "latency_p50_ms": reported(median(plain.latency_ms), "ms", n),
                "latency_p99_ms": reported(percentile(plain.latency_ms, 0.99), "ms", n),
                "max_rps_at_slo": reported(max_rps, "rps", len(rungs)),
            },
            "ladder": [[round(rate, 1), ok] for rate, ok in rungs],
            "autotune": {"servers": tunings},
        }
        return metrics, detail
