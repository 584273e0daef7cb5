"""Merge path as a service: the asyncio front door.

``python -m repro serve`` turns the library into a long-running
process in the shape the Hyrise exemplar suggests (merge path as a
sort operator under a job scheduler): requests are jobs, the shared
persistent worker pools (:mod:`repro.execution.pool`) are the
scheduler.  The moving parts, each separately testable:

* :mod:`.protocol` — newline-delimited JSON over TCP, no new deps;
* :class:`.admission.AdmissionController` — bounded in-flight budget,
  429-style shedding, per-request deadlines;
* :class:`.coalescer.Coalescer` — concurrent small requests fuse into
  one :class:`~repro.backends.TaskBatch` dispatch on the shared pool,
  so ``exec.dispatches`` grows sub-linearly in request count;
* a :class:`~repro.resilience.DegradingBackend` execution chain —
  every request runs under per-task retry supervision (the server's
  policy sets no deadline and no speculation) and falls back
  ``threads → serial`` if the pool level keeps failing, counting
  ``resilience.degradations`` into the server's registry;
* one :class:`~repro.obs.MetricsRegistry` per server — ``serve.*``
  counters, ``slo.ns_per_elem`` histograms and the load-balance
  gauges, so ``python -m repro doctor --slo ... --metrics-from`` can
  judge a live traffic window (a ``metrics`` op scrape or the drain
  snapshot) with the same clauses as the canary.  The server judges
  nothing itself and retunes nothing.

Requests larger than ``small_cutover`` skip the coalescer and run
through the parallel entry points (``parallel_merge`` /
``parallel_merge_sort``) on the same supervised backend, so a stray
100M-element sort coexists with millions of tiny merges.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..backends import TaskBatch
from ..control.slo import SLO
from ..core.selection import topk_of_union
from ..core.sequential import merge_vectorized, sort_chunk
from ..errors import InputError
from ..execution.pool import shared_backend
from ..obs.metrics import MetricsRegistry
from ..resilience.breaker import RecoveryPolicy
from ..resilience.degrade import DegradingBackend
from ..resilience.policy import RetryPolicy
from .admission import AdmissionController
from .coalescer import Coalescer
from .protocol import (
    Request,
    RequestError,
    error_response,
    ok_response,
    parse_request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends import Backend

__all__ = ["ServeConfig", "MergeServer", "ServerThread", "SERVE_DEFAULT_SLO"]


#: The default SLO a serving window is judged against.  Latency bounds
#: are per-*batch-compute* ns/elem (the server observes batch compute
#: time over batch elements into ``slo.ns_per_elem``), far looser than
#: the library canary's because a service batch includes dispatch
#: overhead over tiny payloads; the structural clauses stay tight —
#: they catch bugs (a broken partitioner, an unfused dispatch path),
#: not slow hosts.
SERVE_DEFAULT_SLO = SLO(
    name="serve-default",
    p50_ns_per_elem=200_000.0,
    p99_ns_per_elem=2_000_000.0,
    max_work_spread=1.0,
    max_dispatches_per_call=64.0,
    retry_budget=64,
    max_worker_deaths=0,
)


@dataclass(slots=True)
class ServeConfig:
    """Everything tunable about one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port off the server.
    p: int | None = None  #: workers for the parallel path (None = auto).
    capacity: int = 512  #: admission budget (queued + executing requests).
    max_batch: int = 64  #: coalescer window size cap.
    window_s: float = 0.002  #: coalescer window duration.
    small_cutover: int = 1 << 15  #: elems at or below coalesce; above run parallel.
    default_deadline_ms: float | None = None  #: applied when requests carry none.
    max_request_elems: int = 1 << 20  #: 413 beyond this.
    max_line_bytes: int = 1 << 26  #: request-line cap (64 MiB); typed 413 beyond.
    drain_timeout_s: float = 5.0  #: graceful-drain budget on SIGTERM.
    metrics_snapshot: str | None = None  #: path for the post-mortem snapshot.
    reprobe_interval_s: float = 0.0  #: > 0 re-probes open breakers in background.

    def resolved_p(self) -> int:
        import os

        if self.p is not None:
            return max(1, self.p)
        return min(4, os.cpu_count() or 1)


class _LineReader:
    """Bounded line reader that survives oversized lines.

    ``StreamReader.readline`` raises at its limit and poisons the
    buffer, killing the connection along with every pipelined request
    behind the bad line.  This reader owns the buffer: a line that
    exceeds ``max_bytes`` is *discarded as it streams in* (memory stays
    bounded at one chunk past the cap) and reported so the server can
    answer a typed 413 ``line-too-long``, while bytes after the
    offending newline are preserved for the next call.
    """

    _CHUNK = 1 << 16

    def __init__(self, reader: asyncio.StreamReader, max_bytes: int) -> None:
        self._reader = reader
        self.max_bytes = max_bytes
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> tuple[bytes | None, bool]:
        """Next request line as ``(line, oversized)``.

        ``line`` is ``None`` at EOF; ``oversized`` is True when a line
        crossed ``max_bytes`` (its content was dropped, the connection
        remains usable).
        """
        discarding = False
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[:newline + 1]
                if discarding or len(line) > self.max_bytes:
                    return b"", True
                return line + b"\n", False
            if discarding:
                self._buf.clear()
            elif len(self._buf) > self.max_bytes:
                self._buf.clear()
                discarding = True
            if self._eof:
                if discarding:
                    return b"", True
                if self._buf:
                    line = bytes(self._buf)
                    self._buf.clear()
                    return line, False
                return None, False
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)


class MergeServer:
    """The asyncio TCP front door over the merge-path library.

    ``backend`` defaults to a :class:`DegradingBackend` whose first
    level is the *shared* thread pool (so coalesced batches land on the
    persistent pool) and whose tail is ``serial`` (which cannot die);
    tests inject fault-wrapped chains here.  A server runs in-memory
    work only, so there is no process level: coalesced windows are
    closures over the requests' arrays.  ``registry`` defaults to a fresh
    :class:`MetricsRegistry` owned by the server; a passed-in backend
    with no registry of its own counts into it until :meth:`stop`.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        backend: "Backend | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._owns_backend = backend is None
        if backend is None:
            backend = DegradingBackend(
                [
                    shared_backend("threads", self.config.resolved_p()),
                    "serial",
                ],
                policy=RetryPolicy(
                    max_retries=3,
                    backoff_base_s=0.002,
                    backoff_cap_s=0.05,
                    speculate=False,
                ),
                failure_threshold=3,
                # A service must recover, not just degrade: a transient
                # pool death re-promotes after the breaker's cooldown.
                recovery=RecoveryPolicy(cooldown_s=2.0, cooldown_cap_s=60.0),
            )
        self.backend = backend
        #: Whether this server bound its registry to the backend, which
        #: :meth:`stop` undoes so a passed-in chain outlives the server
        #: unbound.
        self._bound_metrics = getattr(backend, "metrics", False) is None
        if self._bound_metrics:
            backend.metrics = self.registry
        self.admission = AdmissionController(
            self.config.capacity, metrics=self.registry
        )
        self.coalescer = Coalescer(
            self._run_window,
            max_batch=self.config.max_batch,
            window_s=self.config.window_s,
        )
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._reprobe_task: asyncio.Task | None = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral ``port=0`` after start)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun (data requests get 503s)."""
        return self._draining

    async def start(self) -> "MergeServer":
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        if (self.config.reprobe_interval_s > 0
                and hasattr(self.backend, "reprobe")):
            self._reprobe_task = asyncio.get_running_loop().create_task(
                self._reprobe_loop()
            )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown, phase 1: stop accepting, finish in flight.

        Closes the listener, flips :attr:`draining` so new data
        requests on surviving connections get typed 503 ``draining``
        rejections (``ping``/``metrics`` still answer — the post-mortem
        scrape depends on it), then waits up to ``timeout_s`` (default
        ``config.drain_timeout_s``) for the admission ledger to empty.
        Every admitted request is answered before this returns True; a
        False return means the budget expired with work still in
        flight.  Always flushes the metrics snapshot (when configured)
        so ``doctor --metrics-from`` can judge the final window.
        """
        if not self._draining:
            self._draining = True
            self.registry.counter("serve.drains").inc()
            if self._server is not None:
                self._server.close()
        budget = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        deadline = time.monotonic() + max(0.0, budget)
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        clean = self.admission.inflight == 0
        await self.coalescer.drain()
        self.flush_snapshot()
        return clean

    def flush_snapshot(self, path: str | None = None) -> str | None:
        """Atomically publish a ``repro-serve-metrics/1`` snapshot.

        ``path`` defaults to ``config.metrics_snapshot``; no-op (returns
        ``None``) when neither is set.  The payload wraps the registry
        snapshot under a ``"metrics"`` key, the shape
        :func:`repro.control.doctor.load_metrics_snapshot` already
        accepts, so a post-mortem ``doctor --metrics-from`` works on a
        snapshot written mid-SIGTERM.
        """
        target = path or self.config.metrics_snapshot
        if not target:
            return None
        from ..durable import atomic_write_json

        atomic_write_json(target, {
            "schema": "repro-serve-metrics/1",
            "draining": self._draining,
            "metrics": self.registry.snapshot(),
        })
        return target

    async def stop(self) -> None:
        if self._reprobe_task is not None:
            self._reprobe_task.cancel()
            try:
                await self._reprobe_task
            except asyncio.CancelledError:
                pass
            self._reprobe_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        await self.coalescer.drain()
        if self._bound_metrics and self.backend.metrics is self.registry:
            self.backend.metrics = None
            self._bound_metrics = False
        if self._owns_backend:
            # Closes levels the chain constructed itself; the shared
            # pooled level is owned by repro.execution.pool, not us.
            self.backend.close()

    async def _reprobe_loop(self) -> None:
        """Background breaker re-probe (tentpole (b)'s idle half).

        Dispatches already re-probe opportunistically; this loop covers
        the idle server, where no dispatch would ever cross the open
        level and a recovered pool would sit unused until traffic
        returned.  Runs in the executor — a probe executes a real task.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.reprobe_interval_s)
            try:
                await loop.run_in_executor(None, self.backend.reprobe)
            except Exception:  # noqa: BLE001 - keep the loop alive
                pass

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.registry.counter("serve.connections").inc()
        # start_server holds these tasks only weakly; track them so
        # stop() can cancel handlers parked on readline.
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        lines = _LineReader(reader, self.config.max_line_bytes)
        try:
            while True:
                try:
                    line, oversized = await lines.readline()
                except ConnectionError:
                    break  # peer reset: drop the conn
                if line is None:
                    break
                if oversized:
                    self.registry.counter("serve.oversize_lines").inc()
                    await self._write(
                        writer, write_lock, error_response(RequestError(
                            "line-too-long",
                            f"request line exceeded "
                            f"{self.config.max_line_bytes} bytes and was "
                            f"discarded",
                        ))
                    )
                    continue
                if not line.strip():
                    continue
                task = loop.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
            if request_tasks:
                await asyncio.gather(*list(request_tasks),
                                     return_exceptions=True)
        except asyncio.CancelledError:
            # stop() cancelling a handler parked on a read is a normal
            # shutdown path; returning (not re-raising) keeps asyncio's
            # stream-protocol callback from logging a phantom error.
            pass
        finally:
            for task in list(request_tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, line: bytes
    ) -> None:
        async with lock:
            if writer.is_closing():
                return
            writer.write(line)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        reg = self.registry
        try:
            request = parse_request(
                line,
                max_elems=self.config.max_request_elems,
                default_deadline_ms=self.config.default_deadline_ms,
            )
        except RequestError as exc:
            reg.counter("serve.bad_requests").inc()
            await self._write(writer, write_lock, error_response(exc))
            return

        # Introspection ops bypass admission: they must answer even
        # (especially) when the data path is saturated.
        if request.op == "ping":
            await self._write(
                writer, write_lock, ok_response(request.req_id, "pong")
            )
            return
        if request.op == "metrics":
            await self._write(
                writer, write_lock,
                ok_response(request.req_id, reg.snapshot()),
            )
            return

        reg.counter("serve.requests").inc()
        if self._draining:
            reg.counter("serve.drain_rejects").inc()
            await self._write(writer, write_lock, error_response(RequestError(
                "draining",
                "server is draining; retry against another replica",
                request.req_id,
            )))
            return
        if not self.admission.try_admit():
            # counted as serve.shed by the admission controller
            await self._write(writer, write_lock, error_response(RequestError(
                "shed",
                f"admission queue at capacity "
                f"({self.admission.capacity} in flight); retry with backoff",
                request.req_id,
            )))
            return

        t0 = time.monotonic()
        try:
            if request.n_elems > self.config.small_cutover:
                future = asyncio.get_running_loop().run_in_executor(
                    None, self._compute_large, request
                )
                batched = 1
            else:
                future = self.coalescer.submit(request)
                batched = None  # resolved with the window size
            timeout = request.remaining_s()
            try:
                outcome = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                reg.counter("serve.deadline_misses").inc()
                await self._write(
                    writer, write_lock, error_response(RequestError(
                        "deadline",
                        f"deadline of {request.deadline_ms:g} ms expired",
                        request.req_id,
                    ))
                )
                return
            if batched is None:
                result, batched = outcome
            else:
                result = outcome
            elapsed_ms = (time.monotonic() - t0) * 1e3
            reg.histogram("serve.latency_ms").observe(elapsed_ms)
            reg.counter("serve.responses").inc()
            await self._write(writer, write_lock, ok_response(
                request.req_id, result,
                n=len(result), batched=batched,
                elapsed_ms=round(elapsed_ms, 3),
            ))
        except RequestError as exc:
            kind = "errors" if exc.kind == "internal" else "bad_requests"
            reg.counter(f"serve.{kind}").inc()
            await self._write(writer, write_lock, error_response(exc))
        except Exception as exc:  # noqa: BLE001 - reported to the client
            reg.counter("serve.errors").inc()
            await self._write(writer, write_lock, error_response(RequestError(
                "internal", f"{type(exc).__name__}: {exc}", request.req_id,
            )))
        finally:
            self.admission.release()

    # -- compute -------------------------------------------------------

    def _compute_small(self, request: Request) -> np.ndarray:
        """One coalesced request's body (runs on a backend worker)."""
        if request.op == "merge":
            return merge_vectorized(request.a, request.b, check=False)
        if request.op == "sort":
            return sort_chunk(request.data)
        if request.op == "topk":
            return topk_of_union(request.a, request.b, request.k)
        raise InputError(f"op {request.op!r} has no compute")

    def _compute_large(self, request: Request) -> np.ndarray:
        """Above-cutover path: the parallel entry points, supervised."""
        from ..core.merge_sort import parallel_merge_sort
        from ..core.parallel_merge import parallel_merge

        p = self.config.resolved_p()
        t0 = time.perf_counter()
        if request.op == "merge":
            result = parallel_merge(
                request.a, request.b, p,
                backend=self.backend, check=False, metrics=self.registry,
            )
        elif request.op == "sort":
            result = parallel_merge_sort(
                request.data, p,
                backend=self.backend, metrics=self.registry,
            )
        else:  # topk: one diagonal search + a k-prefix merge — O(log + k)
            result = topk_of_union(request.a, request.b, request.k)
        elapsed = time.perf_counter() - t0
        self._observe_compute(request.n_elems, elapsed)
        return result

    def _observe_compute(self, elems: int, elapsed_s: float) -> None:
        if elems > 0:
            self.registry.histogram("slo.ns_per_elem").observe(
                elapsed_s * 1e9 / elems
            )

    async def _run_window(
        self, entries: list[tuple[Request, asyncio.Future]]
    ) -> None:
        """Coalescer runner: one window → one ``run_batch`` dispatch."""
        reg = self.registry
        loop = asyncio.get_running_loop()
        requests = [request for request, _ in entries]

        def work() -> tuple[list[Any], float]:
            tasks = [
                (lambda req=request: self._compute_small(req))
                for request in requests
            ]
            t0 = time.perf_counter()
            results = self.backend.run_batch(TaskBatch(
                tasks, label="serve.batch",
                meta={"requests": len(tasks)},
            ))
            elapsed = time.perf_counter() - t0
            ordered = sorted(results, key=lambda r: r.index)
            return [r.value for r in ordered], elapsed

        try:
            values, elapsed = await loop.run_in_executor(None, work)
        except Exception as exc:  # noqa: BLE001 - fanned out per request
            for request, future in entries:
                if not future.done():
                    future.set_exception(RequestError(
                        "internal",
                        f"batch failed beyond every resilience layer: {exc}",
                        request.req_id,
                    ))
            return

        size = len(entries)
        reg.counter("serve.batches").inc()
        reg.counter("serve.coalesced_requests").inc(size)
        reg.histogram("serve.batch_size").observe(size)
        # One window is exactly one run_batch call; counting the
        # constant (instead of a delta of the shared backend counter)
        # keeps concurrent windows from double-counting each other.
        reg.counter("exec.dispatches").inc(1)
        reg.gauge("exec.dispatches_per_call").set(1)
        self._observe_compute(
            sum(request.n_elems for request in requests), elapsed
        )
        for (request, future), value in zip(entries, values):
            if not future.done():
                future.set_result((value, size))


class ServerThread:
    """A :class:`MergeServer` on a dedicated thread with its own loop.

    The test battery, the load generator's self-test mode, and the
    serve-smoke harness all need a live server inside an otherwise
    synchronous process::

        with ServerThread(ServeConfig(capacity=64)) as handle:
            resp = request_sync(handle.host, handle.port,
                                {"op": "ping", "id": 1})

    ``start()`` returns once the socket is bound (host/port readable);
    ``stop()`` shuts the server down cleanly and joins the thread.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        backend: "Backend | None" = None,
    ) -> None:
        self.server = MergeServer(config, registry=registry, backend=backend)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def registry(self) -> MetricsRegistry:
        return self.server.registry

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def drain(self, timeout_s: float | None = None) -> bool:
        """Run :meth:`MergeServer.drain` on the server's loop; returns
        its clean/dirty verdict.  The thread keeps running (existing
        connections can still scrape ``metrics``) until :meth:`stop`."""
        if self._thread is None or self._loop is None:
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout_s), self._loop
        )
        budget = (
            self.server.config.drain_timeout_s
            if timeout_s is None else timeout_s
        )
        return future.result(timeout=budget + 30.0)

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
