"""Merge path as a service: the asyncio front door (``repro serve``).

The package turns the library into a long-running process: plain-TCP
newline-delimited JSON in (:mod:`.protocol`); small requests computed
on the event loop, large ones by the parallel entry points on the
shared pool under the resilience layer's supervision (:mod:`.server`);
bounded by admission control with load shedding and per-request
deadlines (:mod:`.admission`); and measured
into a :class:`~repro.obs.MetricsRegistry` that ``python -m repro doctor
--slo ... --metrics-from`` judges.  See ``docs/serving.md``.
"""

from .admission import AdmissionController
from .client import AsyncServeClient, ServeClient, request_sync
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
    "ServeConfig",
    "MergeServer",
    "ServerThread",
    "SERVE_DEFAULT_SLO",
    "request_sync",
    "ServeClient",
    "AsyncServeClient",
]
