"""Fixtures for the serve tier: live servers on background threads."""

from __future__ import annotations

import pytest

from repro.backends.serial import SerialBackend
from repro.resilience.faults import FaultInjector, FaultyBackend
from repro.serve import ServeConfig, ServerThread


@pytest.fixture(scope="module")
def server():
    """One live server per test module."""
    with ServerThread(ServeConfig(capacity=256, p=2)) as handle:
        yield handle


@pytest.fixture()
def fresh_server():
    """A per-test server for tests that assert on registry state."""
    with ServerThread(ServeConfig(capacity=64, p=2)) as handle:
        yield handle


def slow_backend(delay_s: float) -> FaultyBackend:
    """A backend that sleeps ``delay_s`` before each task it runs.

    Given to a server with ``small_cutover=0`` (every request takes the
    supervised path), it keeps each request in flight for at least that
    long: long enough to hold an admission slot or outlive a deadline.
    """
    injector = FaultInjector(delay_rate=1.0, delay_s=delay_s)
    return FaultyBackend(SerialBackend(), injector)
