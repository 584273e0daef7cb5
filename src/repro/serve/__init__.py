"""Merge path as a service: the asyncio front door (``repro serve``).

The package turns the library into a long-running process: plain-TCP
newline-delimited JSON in (:mod:`.protocol`), coalesced ``TaskBatch``
dispatches on the shared pools out (:mod:`.coalescer`), bounded by
admission control with load shedding and per-request deadlines
(:mod:`.admission`), supervised by the resilience layer, and measured
into a :class:`~repro.obs.MetricsRegistry` that ``python -m repro doctor
--slo ... --metrics-from`` judges.  See ``docs/serving.md``.
"""

from .admission import AdmissionController
from .client import (
    AsyncResilientClient,
    AsyncServeClient,
    ClientRetryPolicy,
    ResilientClient,
    ServeClient,
    request_sync,
)
from .coalescer import Coalescer
from .protocol import (
    ERROR_CODES,
    OPS,
    Request,
    RequestError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from .server import SERVE_DEFAULT_SLO, MergeServer, ServeConfig, ServerThread

__all__ = [
    "OPS",
    "ERROR_CODES",
    "Request",
    "RequestError",
    "parse_request",
    "encode_line",
    "ok_response",
    "error_response",
    "AdmissionController",
    "Coalescer",
    "ServeConfig",
    "MergeServer",
    "ServerThread",
    "SERVE_DEFAULT_SLO",
    "request_sync",
    "ServeClient",
    "AsyncServeClient",
    "ClientRetryPolicy",
    "ResilientClient",
    "AsyncResilientClient",
]
