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
    Malformed JSON (an integer longer than Python's
    ``int_max_str_digits`` and nesting deeper than ``json`` can follow
    among it), unknown op, missing or non-numeric fields, a
    ``deadline_ms`` that is not a positive number a float can hold,
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
    The compute path raised after every resilience layer gave up, or
    answering one request line raised where no check expected it (that
    line alone gets this answer; its connection stays open).
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

A line of at least ``NUMPY_PARSE_MIN_BYTES`` characters, all ASCII, is
read by a small object scanner over ``json``'s own string and value
scanners.  Each ``a``, ``b`` or ``data`` value in it that is a flat
run of integers is parsed with ``np.fromstring(..., sep=",")`` once a
vectorised check of its bytes shows the JSON grammar: digits, a
leading ``-`` allowed, no leading zero, single commas between numbers,
no whitespace, at most 18 digits a number (so every value is exact in
int64).  Everything else (whitespace, floats, exponents, ``NaN``,
nesting, strings, empty arrays) goes through ``json``, and a line the
scanner cannot read whole goes to ``json.loads``, so the parse gives
the same dtype and values, or the same error, as ``json.loads``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from json.decoder import WHITESPACE, JSONDecoder, scanstring
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
    if isinstance(raw, np.ndarray):  # parsed by _int_run: int64, non-empty
        return raw
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


#: Request lines of at least this many characters read their array
#: fields through :func:`_scan_object`; shorter lines go straight to
#: ``json.loads``.  ``parse_request`` of one ``merge`` of two sorted
#: runs of values below 10^6 in magnitude, median over 8 lines of the
#: best of 20-200 parses, on a 2-vCPU AVX-512 VM (Python 3.11, NumPy
#: 2.4):
#:
#: =============  ==========  ==========  ==========
#: values a side  line bytes  json µs     NumPy µs
#: =============  ==========  ==========  ==========
#: 64             982         25          58
#: 256            3,829       69          75
#: 512            7,575       122         89
#: 1,024          15,193      236         119
#: 4,096          60,606      860         290
#: 32,768         484,226     7,566       1,900
#: =============  ==========  ==========  ==========
NUMPY_PARSE_MIN_BYTES = 1 << 12

#: The fields whose flat integer runs :func:`_scan_object` parses itself.
_ARRAY_FIELDS = frozenset(("a", "b", "data"))
#: Bytes of an integer run :func:`_run_bytes_ok` checks at once.
_RUN_BLOCK = 1 << 16
_scan_value = JSONDecoder().scan_once
_skip_ws = WHITESPACE.match


def _int_run(buf: bytes, start: int, stop: int) -> np.ndarray | None:
    """``buf[start:stop]`` as int64 when it is a non-empty run of JSON
    integers of at most 18 digits joined by single commas, else ``None``.

    The run's bytes must spell exactly what ``json.loads`` reads as
    integers: digits, a ``-`` only at a number's start, no leading
    zero, no whitespace.  Eighteen digits keep every value exact in
    int64, so the result equals ``np.asarray(json.loads(...))``.
    """
    n = stop - start
    if n <= 0:
        return None
    v = np.frombuffer(buf, np.uint8, n, start)
    if v[0] == 44 or not 48 <= v[-1] <= 57:  # "," first, or no digit last
        return None
    if v[0] == 48 and n > 1 and 48 <= v[1] <= 57:  # "01"
        return None
    # Blocks keep the checks' boolean temporaries a few times the block,
    # not the run; they overlap by 18 bytes, so the bytes of every
    # check (at most 19 in a row) lie in one block.
    for lo in range(0, n, _RUN_BLOCK):
        if not _run_bytes_ok(v[lo:lo + _RUN_BLOCK + 18]):
            return None
    return np.fromstring(buf[start:stop], dtype=np.int64, sep=",")


def _run_bytes_ok(v: np.ndarray) -> bool:
    """Whether the bytes ``v`` can lie inside a run :func:`_int_run`
    accepts: only ``[0-9,-]``, a ``-`` only after a ``,``, a ``,`` only
    after a digit, no ``0`` after a non-digit and before a digit, and no
    19 digits in a row.  The first byte is not checked as the start of a
    number: it is the run's first byte, which the caller checks, or one
    the previous block checked."""
    digit = (v - 48) < 10  # wraps below "0"
    comma = v == 44
    minus = v == 45
    if (np.count_nonzero(digit) + np.count_nonzero(comma)
            + np.count_nonzero(minus) != len(v)):
        return False
    if np.greater(minus[1:], comma[:-1]).any():  # "--", "1-"
        return False
    if np.greater(comma[1:], digit[:-1]).any():  # ",,", "-,"
        return False
    lead = v[1:-1] == 48
    np.greater(lead, digit[:-2], out=lead)  # a "0" that starts a number
    if (lead & digit[2:]).any():  # ... and has digits after it
        return False
    # Widen each non-digit over the 18 bytes before it: a byte left
    # uncovered starts 19 digits in a row.
    sep = np.logical_not(digit, out=digit)
    for width in (1, 2, 4, 8, 3):
        sep = sep[:-width] | sep[width:]
    return bool(sep.all())


def _scan_object(line: str, buf: bytes) -> dict[str, Any] | None:
    """The request object of an ASCII ``line`` (``buf`` its bytes), with
    each ``a``, ``b`` or ``data`` value that :func:`_int_run` accepts
    already an int64 array; ``None`` wherever ``json.loads`` must decide.

    Keys and other values go through ``json``'s own scanners, so a
    ``"data":[`` inside a string is just string bytes and a repeated
    key keeps its last value, as in ``json.loads``.  Every value the
    scan returns is the one ``json.loads`` returns for that line, and
    a line ``json.loads`` rejects returns ``None``.
    """
    end = len(line)
    idx = _skip_ws(line, 0).end()
    if line[idx:idx + 1] != "{":
        return None
    obj: dict[str, Any] = {}
    idx = _skip_ws(line, idx + 1).end()
    try:
        while line[idx:idx + 1] == '"':
            key, idx = scanstring(line, idx + 1)
            idx = _skip_ws(line, idx).end()
            if line[idx:idx + 1] != ":":
                return None
            idx = _skip_ws(line, idx + 1).end()
            arr = None
            if key in _ARRAY_FIELDS and line[idx:idx + 1] == "[":
                close = line.find("]", idx)
                if close >= 0:
                    arr = _int_run(buf, idx + 1, close)
            if arr is not None:
                obj[key], idx = arr, close + 1
            else:
                obj[key], idx = _scan_value(line, idx)
            idx = _skip_ws(line, idx).end()
            if line[idx:idx + 1] == "}":
                return obj if _skip_ws(line, idx + 1).end() == end else None
            if line[idx:idx + 1] != ",":
                return None
            idx = _skip_ws(line, idx + 1).end()
    except (StopIteration, ValueError, RecursionError):
        pass
    return None


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
        buf, line = line, line.decode("utf-8", errors="replace")
    else:
        buf = None
    raw = None
    if len(line) >= NUMPY_PARSE_MIN_BYTES and line.isascii():
        raw = _scan_object(line, buf if buf is not None else line.encode())
    if raw is None:
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Besides a JSONDecodeError, json raises a plain ValueError
            # for an integer past int_max_str_digits and RecursionError
            # for nesting deeper than it can follow.
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
        try:
            deadline_ms = float(deadline_ms)
        except OverflowError:  # an integer of about 309 digits or more
            raise RequestError(
                "bad-request", "deadline_ms is past the float range", req_id
            ) from None

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
