"""Seeded network chaos: a TCP proxy that mistreats the serve plane.

The fault injector (PR 3) breaks the *compute* path; this module
breaks the *network* path, which is what a non-loopback deployment
actually fears: connection resets mid-frame, partial/truncated writes,
latency jitter, slowloris trickles, and corrupted bytes.  A
:class:`ChaosProxy` sits between a client (the load generator,
:mod:`repro.workloads.loadgen`) and a live server, forwarding
both directions while injecting faults drawn from per-connection,
per-direction seeded streams (``random.Random(f"{seed}:conn:{i}:up")``)
— the same chaos schedule replays under the same seed and connection
order.

Fault placement is deliberate, because the test gate is *"every
response that arrives is bit-identical to the oracle"*:

* **Corruption runs client→server only, and writes 0x00 bytes.**  A
  corrupted response frame would be indistinguishable from a wrong
  answer (flip one digit and the JSON still parses), which no client
  can detect without recomputing the result — so the proxy never
  forges data the correctness gate is supposed to vouch for.  Upstream
  corruption is fully detectable: NUL bytes cannot appear in a JSON
  request line, the server answers a typed 400, and the response
  stream stays trustworthy.
* **Resets, delays, truncation, and slowloris run in both directions.**
  They destroy or defer frames, never alter surviving bytes: a
  truncated JSON object is unbalanced and fails to parse, so the worst
  case is a lost response or a dropped connection, which the client
  counts as a transport failure, never a wrong answer.

The proxy counts every fault it fires (:attr:`ChaosProxy.stats`), so a
test can assert the chaos actually happened rather than passing
vacuously on a quiet schedule.
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import dataclass

from ..errors import InputError

__all__ = ["ChaosSpec", "ChaosProxy", "ChaosProxyThread"]

#: Fault kinds `ChaosProxy.stats` counts.
FAULT_KINDS = (
    "resets", "corruptions", "truncations", "delays", "slowloris",
)


@dataclass(frozen=True)
class ChaosSpec:
    """Per-chunk fault probabilities and their parameters.

    Rates are evaluated per forwarded chunk, independently per
    direction, from seeded streams.  ``corrupt_rate`` applies only to
    the client→server direction (see the module docstring for why).
    """

    seed: int = 0
    reset_rate: float = 0.0  #: kill both directions mid-chunk.
    corrupt_rate: float = 0.0  #: zero out a byte span (upstream only).
    truncate_rate: float = 0.0  #: forward a prefix, then kill the conn.
    delay_rate: float = 0.0  #: hold a chunk for ``delay_s``.
    delay_s: float = 0.005
    slowloris_rate: float = 0.0  #: trickle a chunk in tiny slow pieces.
    slowloris_chunk: int = 3
    slowloris_delay_s: float = 0.002

    def __post_init__(self) -> None:
        for name in ("reset_rate", "corrupt_rate", "truncate_rate",
                     "delay_rate", "slowloris_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0 or self.slowloris_delay_s < 0:
            raise InputError("delays must be >= 0")
        if self.slowloris_chunk < 1:
            raise InputError("slowloris_chunk must be >= 1")


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of one upstream.

    Usage (async)::

        proxy = ChaosProxy("127.0.0.1", server_port,
                           spec=ChaosSpec(seed=7, reset_rate=0.05))
        await proxy.start()
        ...  # connect clients to (proxy.host, proxy.port)
        await proxy.stop()

    Synchronous tests use :class:`ChaosProxyThread`.  ``stats`` maps
    fault kind → count of faults actually fired.
    """

    _CHUNK = 1 << 14

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        spec: ChaosSpec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.spec = spec or ChaosSpec()
        self.config_host = host
        self.config_port = port
        self.stats: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.connections = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopping = False

    @property
    def host(self) -> str:
        return self.config_host

    @property
    def port(self) -> int:
        """The bound listen port (resolves ephemeral ``port=0``)."""
        if self._server is None or not self._server.sockets:
            return self.config_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ChaosProxy":
        """Bind the listener; connections are handled until :meth:`stop`."""
        self._server = await asyncio.start_server(
            self._handle, self.config_host, self.config_port
        )
        return self

    async def stop(self) -> None:
        """Close the listener and tear down every proxied connection.

        Each connection's transports are aborted, so its pumps read EOF
        and its handler returns by itself.  A handler is never
        cancelled: the stream protocol that started it would log the
        ``CancelledError`` as an unhandled exception.  The transports
        are aborted before ``wait_closed``, which from Python 3.12.1 on
        waits until every accepted connection has been dropped.
        """
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._writers):
            writer.transport.abort()
        if server is not None:
            await server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = self.connections
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if self._stopping:
            await _close(writer, abort=True)
            return
        self._writers.add(writer)
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            self._writers.discard(writer)
            await _close(writer)
            return
        if self._stopping:  # stop() ran while the upstream dial was open
            self._writers.discard(writer)
            await _close(up_writer, abort=True)
            await _close(writer, abort=True)
            return
        self._writers.add(up_writer)
        # One seeded stream per direction: two concurrent pumps sharing
        # an RNG would interleave nondeterministically.
        seed = self.spec.seed
        up = asyncio.create_task(self._pump(
            reader, up_writer,
            rng=random.Random(f"{seed}:conn:{index}:up"),
            corruptible=True,
        ))
        down = asyncio.create_task(self._pump(
            up_reader, writer,
            rng=random.Random(f"{seed}:conn:{index}:down"),
            corruptible=False,
        ))
        try:
            await asyncio.gather(up, down, return_exceptions=True)
        finally:
            for pump in (up, down):
                pump.cancel()
            await asyncio.gather(up, down, return_exceptions=True)
            await _close(up_writer)
            await _close(writer)
            self._writers.difference_update((writer, up_writer))

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        rng: random.Random,
        corruptible: bool,
    ) -> None:
        spec = self.spec
        while True:
            try:
                chunk = await reader.read(self._CHUNK)
            except (ConnectionError, OSError):
                break
            if not chunk:
                break
            draw = rng.random()
            threshold = spec.reset_rate
            if draw < threshold:
                self.stats["resets"] += 1
                await _close(writer, abort=True)
                return
            threshold += spec.truncate_rate
            if draw < threshold:
                self.stats["truncations"] += 1
                keep = rng.randrange(len(chunk))
                if keep and not self._write(writer, chunk[:keep]):
                    return
                await _close(writer, abort=True)
                return
            if corruptible and spec.corrupt_rate:
                if rng.random() < spec.corrupt_rate:
                    self.stats["corruptions"] += 1
                    chunk = self._corrupt(chunk, rng)
            draw2 = rng.random()
            threshold = spec.delay_rate
            if draw2 < threshold:
                self.stats["delays"] += 1
                await asyncio.sleep(spec.delay_s)
            threshold += spec.slowloris_rate
            if spec.delay_rate <= draw2 < threshold:
                self.stats["slowloris"] += 1
                step = spec.slowloris_chunk
                for lo in range(0, len(chunk), step):
                    if not self._write(writer, chunk[lo:lo + step]):
                        return
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        return
                    await asyncio.sleep(spec.slowloris_delay_s)
                continue
            if not self._write(writer, chunk):
                return
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
        await _close(writer)

    @staticmethod
    def _write(writer: asyncio.StreamWriter, data: bytes) -> bool:
        if writer.is_closing():
            return False
        try:
            writer.write(data)
        except (ConnectionError, OSError):
            return False
        return True

    @staticmethod
    def _corrupt(chunk: bytes, rng: random.Random) -> bytes:
        """Overwrite a short span with NUL bytes (never valid in JSON,
        so the defect is always *detectable*, never a silent flip)."""
        span = min(len(chunk), 1 + rng.randrange(4))
        start = rng.randrange(max(1, len(chunk) - span + 1))
        return chunk[:start] + b"\x00" * span + chunk[start + span:]


async def _close(writer: asyncio.StreamWriter, *, abort: bool = False) -> None:
    try:
        if abort and writer.transport is not None:
            writer.transport.abort()  # RST, not FIN: a *reset*, not a close
        else:
            writer.close()
            await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class ChaosProxyThread:
    """A :class:`ChaosProxy` on a dedicated thread with its own loop.

    The synchronous tests and the smoke harness put this between a
    :class:`~repro.serve.ServerThread` and the load generator::

        with ServerThread(config) as srv, \\
             ChaosProxyThread(srv.host, srv.port, spec=spec) as proxy:
            report = run_load_sync(proxy.host, proxy.port, LoadSpec())
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        spec: ChaosSpec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.proxy = ChaosProxy(
            upstream_host, upstream_port, spec=spec, host=host, port=port
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.proxy.host

    @property
    def port(self) -> int:
        return self.proxy.port

    @property
    def stats(self) -> dict[str, int]:
        return self.proxy.stats

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.proxy.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.proxy.stop())
            loop.close()

    def start(self) -> "ChaosProxyThread":
        """Start the proxy thread; returns once the socket is bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-netchaos", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Tear the proxy down and join the thread."""
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ChaosProxyThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
