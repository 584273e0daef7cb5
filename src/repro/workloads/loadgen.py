"""Deterministic load generator for the serve front door.

The traffic shape ROADMAP item 1 names — *millions of small merges
plus the occasional large sort* — as a seeded, reproducible client
fleet.  Every request is generated from a per-client
``numpy.random.default_rng`` stream, every response is checked
bit-for-bit against the serial oracle (``np.sort`` with the stable
mergesort, the same oracle the conformance tier uses), and the run
folds into a :class:`LoadReport` the smoke harness and the serve tests
assert on.

Kept out of the :mod:`repro.workloads` namespace re-exports' import
path cost: like :mod:`.canary` it imports service machinery, so import
it explicitly (``from repro.workloads.loadgen import run_load_sync``).

Payloads are integers only: ints round-trip JSON exactly, so "bit
identical to the oracle" is a meaningful equality, not an epsilon.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..serve.client import AsyncServeClient

__all__ = ["LoadSpec", "LoadReport", "build_requests", "oracle",
           "run_load", "run_load_sync"]


@dataclass(slots=True)
class LoadSpec:
    """Shape of one deterministic load run."""

    clients: int = 8  #: concurrent connections.
    requests_per_client: int = 50
    seed: int = 7
    small_min: int = 0  #: tiny-merge sizes drawn from [small_min, small_max].
    small_max: int = 256
    large_every: int = 25  #: every Nth request is a large sort (0 = never).
    large_n: int = 200_000
    topk_every: int = 10  #: every Nth request is a top-k (0 = never).
    pipeline: int = 8  #: requests in flight per connection.
    #: > 0 loops the request list until time is up, reopening any
    #: connection lost to a stall or disconnect meanwhile.
    duration_s: float = 0.0
    deadline_ms: float | None = None  #: attached to every request when set.
    recv_timeout_s: float = 30.0  #: per-read stall budget; see ``stalls``.


@dataclass(slots=True)
class LoadReport:
    """Outcome of one load run; ``incorrect`` must be zero, always."""

    sent: int = 0
    ok: int = 0
    incorrect: int = 0
    shed: int = 0
    deadline_misses: int = 0
    bad_requests: int = 0
    draining: int = 0
    errors: int = 0
    unmatched: int = 0  #: responses whose id matched nothing in flight.
    disconnects: int = 0  #: connections the server/network dropped mid-run.
    stalls: int = 0  #: reads that hit ``recv_timeout_s`` (lost responses).
    reconnects: int = 0  #: connections reopened after a stall or disconnect.
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    def merge(self, other: "LoadReport") -> None:
        self.sent += other.sent
        self.ok += other.ok
        self.incorrect += other.incorrect
        self.shed += other.shed
        self.deadline_misses += other.deadline_misses
        self.bad_requests += other.bad_requests
        self.draining += other.draining
        self.errors += other.errors
        self.unmatched += other.unmatched
        self.disconnects += other.disconnects
        self.stalls += other.stalls
        self.reconnects += other.reconnects
        self.latencies_ms.extend(other.latencies_ms)

    def summary(self) -> dict[str, Any]:
        lat = sorted(self.latencies_ms)

        def pct(q: float) -> float | None:
            # None, not a fake 0.0: an empty window has no percentile,
            # and a dashboard must see "no data", not "0 ms tail".
            if not lat:
                return None
            return round(lat[min(len(lat) - 1, int(q * len(lat)))], 3)

        return {
            "sent": self.sent,
            "ok": self.ok,
            "incorrect": self.incorrect,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "bad_requests": self.bad_requests,
            "draining": self.draining,
            "errors": self.errors,
            "unmatched": self.unmatched,
            "disconnects": self.disconnects,
            "stalls": self.stalls,
            "reconnects": self.reconnects,
            "elapsed_s": round(self.elapsed_s, 3),
            "rps": round(self.sent / self.elapsed_s, 1)
            if self.elapsed_s > 0 else 0.0,
            "latency_ms": {
                "p50": pct(0.50),
                "p99": pct(0.99),
            },
        }


def _sorted_ints(rng: np.random.Generator, n: int) -> list[int]:
    return np.sort(rng.integers(-1_000_000, 1_000_000, size=n)).tolist()


def build_requests(spec: LoadSpec, client_index: int) -> list[dict[str, Any]]:
    """The deterministic request list for one simulated client.

    Seeded by ``(spec.seed, client_index)``, so the same spec always
    produces the same traffic — a failed soak replays exactly.
    """
    rng = np.random.default_rng((spec.seed, client_index))
    requests: list[dict[str, Any]] = []
    for i in range(spec.requests_per_client):
        req_id = f"c{client_index}-{i}"
        if spec.large_every and (i + 1) % spec.large_every == 0:
            data = rng.integers(
                -10_000_000, 10_000_000, size=spec.large_n
            ).tolist()
            req: dict[str, Any] = {"id": req_id, "op": "sort", "data": data}
        elif spec.topk_every and (i + 1) % spec.topk_every == 0:
            na = int(rng.integers(spec.small_min, spec.small_max + 1))
            nb = int(rng.integers(spec.small_min, spec.small_max + 1))
            a, b = _sorted_ints(rng, na), _sorted_ints(rng, nb)
            k = int(rng.integers(0, na + nb + 1))
            req = {"id": req_id, "op": "topk", "a": a, "b": b, "k": k}
        else:
            na = int(rng.integers(spec.small_min, spec.small_max + 1))
            nb = int(rng.integers(spec.small_min, spec.small_max + 1))
            req = {
                "id": req_id, "op": "merge",
                "a": _sorted_ints(rng, na), "b": _sorted_ints(rng, nb),
            }
        if spec.deadline_ms is not None:
            req["deadline_ms"] = spec.deadline_ms
        requests.append(req)
    return requests


def oracle(request: dict[str, Any]) -> list[int]:
    """The serial ground truth for one request (stable mergesort)."""
    op = request["op"]
    if op == "merge":
        merged = np.sort(
            np.concatenate([
                np.asarray(request["a"], dtype=np.int64),
                np.asarray(request["b"], dtype=np.int64),
            ]),
            kind="mergesort",
        )
        return merged.tolist()
    if op == "sort":
        return np.sort(
            np.asarray(request["data"], dtype=np.int64), kind="mergesort"
        ).tolist()
    if op == "topk":
        merged = np.sort(np.concatenate([
            np.asarray(request["a"], dtype=np.int64),
            np.asarray(request["b"], dtype=np.int64),
        ]), kind="mergesort")
        return merged[: request["k"]].tolist()
    raise ValueError(f"no oracle for op {op!r}")


#: Pause before a duration soak reopens a lost connection; it doubles
#: while reconnecting fails, up to the second value.
_RECONNECT_PAUSE_S = (0.01, 0.2)


async def _run_client(
    host: str, port: int, spec: LoadSpec, client_index: int
) -> LoadReport:
    report = LoadReport()
    requests = build_requests(spec, client_index)
    deadline = (
        time.monotonic() + spec.duration_s if spec.duration_s > 0 else None
    )

    def more() -> bool:
        # One pass over the list, or laps of it until time is up.
        if deadline is None:
            return report.sent < len(requests)
        return bool(requests) and time.monotonic() < deadline

    client = await AsyncServeClient(host, port).connect()
    try:
        while True:
            try:
                await _drive(client, spec, requests, report, more)
                return report
            except asyncio.TimeoutError:
                # In-flight responses stopped arriving: the lost frames
                # are casualties, not wrong answers.  The connection's
                # ordering guarantees are gone, so give it up.
                report.stalls += 1
            except (ConnectionError, OSError, ValueError):
                # The server (or a chaos proxy) dropped us mid-run;
                # everything still in flight is lost, not wrong.
                report.disconnects += 1
            await client.close()
            if deadline is None:
                return report
            client = await _reconnect(host, port, more)
            if client is None:
                return report
            report.reconnects += 1
    finally:
        if client is not None:
            await client.close()


async def _reconnect(
    host: str, port: int, more: Callable[[], bool]
) -> AsyncServeClient | None:
    """A new connection, retried with a bounded doubling pause while
    ``more()`` holds; ``None`` once it does not."""
    pause, cap = _RECONNECT_PAUSE_S
    while True:
        await asyncio.sleep(pause)
        if not more():
            return None
        try:
            return await AsyncServeClient(host, port).connect()
        except OSError:
            pause = min(2 * pause, cap)


async def _drive(
    client: AsyncServeClient,
    spec: LoadSpec,
    requests: list[dict[str, Any]],
    report: LoadReport,
    more: Callable[[], bool],
) -> None:
    """Send the requests after the ``report.sent`` already sent, keeping
    ``spec.pipeline`` in flight, while ``more()`` holds; then collect
    the rest.  Raises on a stall or a lost connection."""
    inflight: dict[str, tuple[dict[str, Any], float]] = {}

    async def collect_one() -> None:
        # Bounded read: a response that never comes (a chaos proxy ate
        # the frame, or the server 400'd a corrupted request under its
        # own null id) must cost a counted stall, never a hung soak.
        response = await asyncio.wait_for(client.recv(), spec.recv_timeout_s)
        entry = inflight.pop(response.get("id"), None)
        if entry is None:
            # A response we never asked for (or already gave up on) —
            # possible when the path corrupts a frame's id.  Count it;
            # never crash the collector.
            report.unmatched += 1
            return
        req, t0 = entry
        _score(report, req, response, (time.monotonic() - t0) * 1e3)

    while more():
        lap, index = divmod(report.sent, len(requests))
        base = requests[index]
        req = base if lap == 0 else {**base, "id": f"{base['id']}-l{lap}"}
        while len(inflight) >= max(1, spec.pipeline):
            await collect_one()
        inflight[req["id"]] = (req, time.monotonic())
        await client.send(req)
        report.sent += 1
    while inflight:
        await collect_one()


def _score(
    report: LoadReport,
    request: dict[str, Any],
    response: dict[str, Any],
    latency_ms: float,
) -> None:
    if response.get("ok"):
        report.latencies_ms.append(latency_ms)
        if response.get("result") == oracle(request):
            report.ok += 1
        else:
            report.incorrect += 1
        return
    kind = (response.get("error") or {}).get("kind")
    if kind == "shed":
        report.shed += 1
    elif kind == "deadline":
        report.deadline_misses += 1
    elif kind in ("bad-request", "too-large", "line-too-long"):
        report.bad_requests += 1
    elif kind == "draining":
        report.draining += 1
    else:
        report.errors += 1


async def run_load(host: str, port: int, spec: LoadSpec) -> LoadReport:
    """Run the client fleet against a live server; aggregate reports."""
    t0 = time.monotonic()
    reports = await asyncio.gather(*(
        _run_client(host, port, spec, i) for i in range(spec.clients)
    ))
    total = LoadReport()
    for report in reports:
        total.merge(report)
    total.elapsed_s = time.monotonic() - t0
    return total


def run_load_sync(host: str, port: int, spec: LoadSpec) -> LoadReport:
    """:func:`run_load` from synchronous code (own event loop)."""
    return asyncio.run(run_load(host, port, spec))
