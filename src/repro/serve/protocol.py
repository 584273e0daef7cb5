"""The wire protocol: newline-delimited JSON over plain TCP.

One request per line, one response per line, no framing beyond ``\\n``
and no dependencies beyond the standard library — a client is
``socket`` plus ``json`` (or ``nc`` at a shell).  Requests carry an
``id`` the server echoes verbatim, so clients may pipeline many
requests on one connection and match responses out of order (the
server answers in completion order, not arrival order).

Request shape::

    {"id": 7, "op": "merge", "a": [1, 3, 5], "b": [2, 4]}
    {"id": 8, "op": "sort", "data": [5, 2, 9, 1]}
    {"id": 9, "op": "topk", "a": [...], "b": [...], "k": 10}
    {"id": 0, "op": "ping"}
    {"id": 1, "op": "metrics"}
    {"id": 2, "op": "merge", "a": [...], "b": [...], "deadline_ms": 50}

Response shape::

    {"id": 7, "ok": true, "result": [1, 2, 3, 4, 5], "n": 5,
     "elapsed_ms": 0.8}
    {"id": 2, "ok": false,
     "error": {"code": 429, "kind": "shed", "message": "..."}}

Error ``kind``/``code`` pairs (HTTP-flavoured so dashboards can reuse
status-code buckets):

``bad-request`` / 400
    Malformed JSON, unknown op, missing or non-numeric fields,
    unsorted inputs to ``merge``/``topk``, ``k`` out of range.
``too-large`` / 413
    More elements than the server's ``max_request_elems``.
``line-too-long`` / 413
    The raw request line exceeded the server's ``max_line_bytes``
    before a newline arrived; the oversized line is discarded without
    buffering it whole, so a garbage flood can't balloon reader memory.
``shed`` / 429
    Admission control rejected the request (queue at capacity).  The
    client should back off and retry; the payload is the 429-style
    rejection the admission layer promises.
``deadline`` / 504
    The per-request deadline expired before a result was ready.
``internal`` / 500
    The compute path raised after every resilience layer gave up.
``draining`` / 503
    The server received SIGTERM/SIGINT and is draining: in-flight
    requests finish, new data requests get this typed rejection
    (``ping``/``metrics`` still answer, so post-mortem scrapes work).
    Safe to retry against another replica — requests are idempotent
    pure functions.

Arrays are JSON numbers; all-integer arrays round-trip as int64 and
any float promotes the array to float64 (numpy's own coercion), so a
response is bit-identical to the serial ``merge()`` oracle run on the
same JSON values.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..validation import first_disorder

__all__ = [
    "OPS",
    "RequestError",
    "Request",
    "parse_request",
    "ok_response",
    "error_response",
    "encode_line",
]

#: Every op the front door accepts.
OPS = ("merge", "sort", "topk", "ping", "metrics")

#: kind -> HTTP-flavoured status code.
ERROR_CODES = {
    "bad-request": 400,
    "too-large": 413,
    "line-too-long": 413,
    "shed": 429,
    "deadline": 504,
    "internal": 500,
    "draining": 503,
}


class RequestError(Exception):
    """A request that must be answered with an error payload."""

    def __init__(self, kind: str, message: str, req_id: Any = None) -> None:
        if kind not in ERROR_CODES:
            raise ValueError(f"unknown error kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.code = ERROR_CODES[kind]
        self.message = message
        self.req_id = req_id


@dataclass(slots=True)
class Request:
    """One decoded, validated request (arrays already numpy)."""

    op: str
    req_id: Any = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    data: np.ndarray | None = None
    k: int = 0
    deadline_ms: float | None = None
    received_at: float = field(default_factory=time.monotonic)

    @property
    def n_elems(self) -> int:
        """Total payload elements (the unit of the ns/elem SLO)."""
        total = 0
        for arr in (self.a, self.b, self.data):
            if arr is not None:
                total += len(arr)
        return total

    def remaining_s(self, now: float | None = None) -> float | None:
        """Seconds until the deadline; ``None`` when none was set."""
        if self.deadline_ms is None:
            return None
        now = time.monotonic() if now is None else now
        return self.received_at + self.deadline_ms / 1000.0 - now


def _as_array(raw: Any, name: str, req_id: Any) -> np.ndarray:
    if not isinstance(raw, list):
        raise RequestError(
            "bad-request", f"field {name!r} must be a JSON array", req_id
        )
    try:
        arr = np.asarray(raw)
    except (ValueError, TypeError) as exc:
        raise RequestError(
            "bad-request", f"field {name!r} is not numeric: {exc}", req_id
        ) from exc
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.number):
        raise RequestError(
            "bad-request",
            f"field {name!r} must be a flat array of numbers "
            f"(got dtype {arr.dtype}, ndim {arr.ndim})",
            req_id,
        )
    return arr


def _check_sorted(arr: np.ndarray, name: str, req_id: Any) -> None:
    """Reject ``arr`` unless it is sorted in NumPy's order (NaN last),
    the order the merges check and produce."""
    i = first_disorder(arr)
    if i is not None:
        raise RequestError(
            "bad-request",
            f"field {name!r} must be sorted non-decreasing, NaN last; "
            f"it descends at index {i}",
            req_id,
        )


def parse_request(
    line: bytes | str,
    *,
    max_elems: int | None = None,
    default_deadline_ms: float | None = None,
) -> Request:
    """Decode and validate one request line.

    Raises :class:`RequestError` on any defect; when the line was at
    least valid JSON with an ``id`` field, the error carries it so the
    response can still be correlated.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RequestError("bad-request", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise RequestError("bad-request", "request must be a JSON object")
    req_id = raw.get("id")

    op = raw.get("op")
    if op not in OPS:
        raise RequestError(
            "bad-request",
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
            req_id,
        )

    deadline_ms = raw.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise RequestError(
                "bad-request", "deadline_ms must be a positive number", req_id
            )
        deadline_ms = float(deadline_ms)

    req = Request(op=op, req_id=req_id, deadline_ms=deadline_ms)
    if op == "merge" or op == "topk":
        req.a = _as_array(raw.get("a", None), "a", req_id)
        req.b = _as_array(raw.get("b", None), "b", req_id)
        _check_sorted(req.a, "a", req_id)
        _check_sorted(req.b, "b", req_id)
    elif op == "sort":
        req.data = _as_array(raw.get("data", None), "data", req_id)
    if op == "topk":
        k = raw.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise RequestError("bad-request", "topk needs an integer k", req_id)
        if not 0 <= k <= len(req.a) + len(req.b):
            raise RequestError(
                "bad-request",
                f"k must be in [0, {len(req.a) + len(req.b)}], got {k}",
                req_id,
            )
        req.k = k

    if max_elems is not None and req.n_elems > max_elems:
        raise RequestError(
            "too-large",
            f"request carries {req.n_elems} elements, limit {max_elems}",
            req_id,
        )
    return req


def encode_line(payload: dict[str, Any]) -> bytes:
    """One response (or request) as a compact JSON line."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def ok_response(req_id: Any, result: Any, **extra: Any) -> bytes:
    if isinstance(result, np.ndarray):
        result = result.tolist()
    return encode_line({"id": req_id, "ok": True, "result": result, **extra})


def error_response(exc: RequestError) -> bytes:
    return encode_line({
        "id": exc.req_id,
        "ok": False,
        "error": {
            "code": exc.code, "kind": exc.kind, "message": exc.message,
        },
    })
