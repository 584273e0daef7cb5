"""Clients for the NDJSON front door: stdlib-only, sync and async.

The protocol is plain enough that ``nc`` works; these helpers exist so
tests, the load generator, and the smoke harness don't each reinvent
line framing and id matching.  :func:`request_sync` is the one-shot
convenience; :class:`ServeClient` holds a connection open (pipelining
friendly — send many, then collect by id); :class:`AsyncServeClient`
is the asyncio flavour the load generator fans out with.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any

from .protocol import encode_line

__all__ = [
    "request_sync",
    "ServeClient",
    "AsyncServeClient",
]


def request_sync(
    host: str,
    port: int,
    payload: dict[str, Any],
    *,
    timeout: float = 30.0,
) -> dict[str, Any]:
    """Open a connection, send one request, return the decoded response."""
    with ServeClient(host, port, timeout=timeout) as client:
        return client.request(payload)


class ServeClient:
    """A persistent synchronous connection to a merge server."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def send(self, payload: dict[str, Any]) -> None:
        """Write one request line without waiting for the response."""
        self._sock.sendall(encode_line(payload))

    def recv(self) -> dict[str, Any]:
        """Read one response line (completion order, not send order)."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.send(payload)
        return self.recv()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncServeClient:
    """A persistent asyncio connection; ``connect``, then ``send``/``recv``.

    The load generator uses one client per simulated connection and
    pipelines explicitly: it sends up to its window of requests, then
    matches each response to its request by id.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self, *, limit: int = 1 << 26) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=limit
        )
        return self

    async def send(self, payload: dict[str, Any]) -> None:
        assert self._writer is not None, "call connect() first"
        self._writer.write(encode_line(payload))
        await self._writer.drain()

    async def recv(self) -> dict[str, Any]:
        assert self._reader is not None, "call connect() first"
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
