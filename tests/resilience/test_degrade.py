"""Graceful degradation: probing and the DegradingBackend chain."""

import gc
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.backends.serial import SerialBackend
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition, parallel_merge
from repro.errors import BackendError, BackendUnavailableError
from repro.obs import MetricsRegistry
from repro.resilience import (
    DEGRADATION_CHAIN,
    DegradationWarning,
    DegradingBackend,
    FaultInjector,
    FaultyBackend,
    ResilientBackend,
    RetryPolicy,
    innermost_backend,
    probe_backend,
)


def _needs_absent_module(**kwargs):
    raise ImportError("No module named 'absentdep'", name="absentdep")


@pytest.fixture
def absent_dep_backend(monkeypatch):
    """Register a backend whose constructor imports an absent module."""
    from repro.backends import base

    base.available_backends()  # register the builtins first
    monkeypatch.setitem(base._REGISTRY, "needs-absentdep", _needs_absent_module)
    return "needs-absentdep"


def _doomed():
    """A backend level where every attempt always fails."""
    return FaultyBackend(
        SerialBackend(),
        FaultInjector(seed=0, error_rate=1.0, faulty_attempts=None),
    )


_FAST = RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01,
                    speculate=False)


class TestProbe:
    def test_serial_is_healthy(self):
        assert probe_backend("serial") is None

    def test_threads_is_healthy(self):
        assert probe_backend("threads", max_workers=2) is None

    def test_missing_dependency_reported(self, absent_dep_backend):
        defect = probe_backend(absent_dep_backend)
        assert defect is not None and "absentdep" in defect

    def test_unknown_backend_reports_defect(self):
        defect = probe_backend("no-such-backend")
        assert defect is not None and "no-such-backend" in defect


class TestResolveBackend:
    """How the chain resolves the level a batch runs on."""

    def test_healthy_preferred_is_used_without_warning(self):
        reg = MetricsRegistry()
        dg = DegradingBackend(["serial"], policy=_FAST)
        dg.metrics = reg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = dg.run_tasks([lambda: 7])
        assert [r.value for r in res] == [7]
        assert isinstance(dg._levels[0], ResilientBackend)
        assert innermost_backend(dg._levels[0]).name == "serial"
        assert reg.value("resilience.degradations", 0) == 0
        dg.close()

    def test_missing_dependency_degrades_down_the_chain_with_warnings(
        self, absent_dep_backend
    ):
        reg = MetricsRegistry()
        dg = DegradingBackend([absent_dep_backend, "serial"], policy=_FAST)
        dg.metrics = reg
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = dg.run_tasks([lambda: 3])
        assert [r.value for r in res] == [3]
        assert dg.active_backend == "serial"
        assert dg.breaker_states()[absent_dep_backend] == "disabled"
        degradations = [
            w for w in caught if issubclass(w.category, DegradationWarning)
        ]
        assert len(degradations) == 1
        assert "absentdep" in str(degradations[0].message)
        assert reg.value("resilience.degradations") == 1
        # A disabled level is skipped silently and never counted again.
        dg.run_tasks([lambda: 4])
        assert reg.value("resilience.degradations") == 1
        dg.close()

    def test_default_chain_order(self):
        assert DEGRADATION_CHAIN == ("threads", "serial")

    def test_default_chain_serves_an_in_memory_merge(self):
        """The default chain has no process level, so the in-memory
        entry points accept it."""
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, 1000, 300))
        b = np.sort(rng.integers(0, 1000, 200))
        chain = DegradingBackend()
        try:
            out = parallel_merge(a, b, 2, backend=chain)
        finally:
            chain.close()
        np.testing.assert_array_equal(
            out, np.sort(np.concatenate([a, b]), kind="stable")
        )


class TestDegradingBackend:
    def test_failing_level_falls_through_with_warning(self):
        dg = DegradingBackend([_doomed(), "serial"], policy=_FAST)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = dg.run_tasks([lambda: 5, lambda: 6])
        assert [r.value for r in res] == [5, 6]
        assert any(
            issubclass(w.category, DegradationWarning) for w in caught
        )
        assert dg.active_backend == "serial"
        dg.close()

    def test_disabled_level_not_retried_on_next_batch(self):
        dg = DegradingBackend([_doomed(), "serial"], policy=_FAST,
                              failure_threshold=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            dg.run_tasks([lambda: 1])
            # Second batch goes straight to serial: no new warning.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                dg.run_tasks([lambda: 2])
        assert not any(
            issubclass(w.category, DegradationWarning) for w in caught
        )
        dg.close()

    def test_all_levels_failing_raises(self):
        dg = DegradingBackend([_doomed(), _doomed()], policy=_FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(BackendError, match="every level"):
                dg.run_tasks([lambda: 1])
        dg.close()

    def test_merge_partition_replays_on_next_level(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, 500, 300))
        b = np.sort(rng.integers(0, 500, 300))
        part = partition_merge_path(a, b, 4, check=False)
        dg = DegradingBackend([_doomed(), "serial"], policy=_FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            merged = merge_partition(a, b, part, backend=dg)
        assert np.array_equal(
            merged, np.sort(np.concatenate([a, b]), kind="stable")
        )
        dg.close()

    def test_parallel_merge_over_degrading_backend(self):
        rng = np.random.default_rng(8)
        a = np.sort(rng.integers(0, 100, 64))
        b = np.sort(rng.integers(0, 100, 64))
        dg = DegradingBackend([_doomed(), "serial"], policy=_FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            merged = parallel_merge(a, b, 4, backend=dg)
        assert np.array_equal(
            merged, np.sort(np.concatenate([a, b]), kind="stable")
        )
        dg.close()

    def test_shared_telemetry_across_levels(self):
        reg = MetricsRegistry()
        dg = DegradingBackend([_doomed(), "serial"], policy=_FAST)
        dg.metrics = reg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            dg.run_tasks([lambda: 1])
        # Both the doomed level's attempts and serial's are recorded.
        assert reg.value("resilience.batches") == 2
        assert reg.value("resilience.retries") >= 1
        assert reg.value("resilience.degradations") == 1
        dg.close()

    def test_batches_are_counted_not_retained(self):
        """A long-lived chain keeps one batch record, however many run."""
        reg = MetricsRegistry()
        dg = DegradingBackend(["serial"])
        dg.metrics = reg
        tasks = [time.monotonic, time.monotonic]
        try:
            for _ in range(100):
                dg.run_tasks(tasks)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(900):
                    dg.run_tasks(tasks)
                gc.collect()  # supervision leaves reference cycles behind
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            dg.close()
        assert reg.value("resilience.batches") == 1000
        assert reg.value("resilience.tasks") == 2000
        # A retained record per batch would cost about 450 bytes each.
        assert grown < 50_000, grown


def _chain_keys(registry: MetricsRegistry) -> list[str]:
    return sorted(
        key for key in registry.snapshot()
        if "degradation" in key or "recover" in key
    )


class TestOneCountPerFall:
    """A fall or a recovery is counted once, by the chain, into the
    registry that chain is bound to, and nowhere else."""

    def test_a_fall_reaches_only_the_chain_registry(self):
        from repro.serve import ServeConfig, ServerThread

        a = np.arange(0, 200, 2)
        b = np.arange(1, 200, 2)
        lib = MetricsRegistry()
        chain = DegradingBackend([_doomed(), "serial"], policy=_FAST)
        with ServerThread(ServeConfig(capacity=8)) as one, \
                ServerThread(ServeConfig(capacity=8)) as two:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                merged = parallel_merge(a, b, 2, backend=chain, metrics=lib)
            servers = [one.registry, two.registry]
        chain.close()

        assert np.array_equal(merged, np.arange(200))
        assert lib.value("resilience.degradations") >= 1
        assert [_chain_keys(reg) for reg in servers] == [[], []]

    def test_fall_and_recovery_count_once_in_a_server_registry(self):
        from repro.resilience import RecoveryPolicy
        from repro.serve import ServeConfig, ServerThread
        from repro.serve.client import request_sync
        from tests.resilience.test_breaker import FakeClock

        clock = FakeClock()
        injector = FaultInjector(seed=11, error_rate=1.0,
                                 faulty_attempts=None)
        chain = DegradingBackend(
            [FaultyBackend(SerialBackend(), injector), "serial"],
            policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=5.0, jitter=0.0), clock=clock,
        )
        # The test re-probes by hand; the server's background loop
        # would race it for the recovery.  small_cutover=0 sends the
        # merge through the chain (smaller requests run on the loop).
        config = ServeConfig(capacity=8, reprobe_interval_s=0,
                             small_cutover=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with ServerThread(config, backend=chain) as handle:
                resp = request_sync(handle.host, handle.port, {
                    "id": 1, "op": "merge", "a": [1, 3], "b": [2],
                })
                assert resp["result"] == [1, 2, 3]
                injector.disarm()
                clock.advance(5.0)
                # The chain counts synchronously into the registry the
                # server bound it to, so both counts are there on return.
                chain.reprobe()
                registry = handle.registry
        chain.close()

        assert _chain_keys(registry) == [
            "resilience.degradations", "resilience.recoveries",
        ]
        assert registry.value("resilience.degradations") == 1
        assert registry.value("resilience.recoveries") == 1


class TestUnavailableError:
    def test_get_backend_names_missing_dep_and_chain(self, absent_dep_backend):
        from repro.backends import get_backend

        with pytest.raises(BackendUnavailableError) as exc_info:
            get_backend(absent_dep_backend)
        err = exc_info.value
        assert err.backend == absent_dep_backend
        assert "absentdep" in err.missing
        assert "DegradingBackend" in str(err)
