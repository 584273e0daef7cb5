"""ResilientBackend: retries, timeouts, speculation, telemetry."""

import threading
import time

import numpy as np
import pytest

from repro.backends.serial import SerialBackend
from repro.backends.threads import ThreadBackend
from repro.errors import BatchError, InputError
from repro.obs import MetricsRegistry
from repro.resilience import (
    FaultInjector,
    FaultyBackend,
    ResilientBackend,
    RetryPolicy,
    innermost_backend,
)


def _policy(**kw):
    kw.setdefault("backoff_base_s", 0.001)
    kw.setdefault("backoff_cap_s", 0.01)
    kw.setdefault("speculate", False)
    return RetryPolicy(**kw)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(InputError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(InputError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(InputError):
            RetryPolicy(straggler_factor=1.0)

    def test_backoff_is_exponential_and_capped(self):
        import random

        pol = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                          backoff_cap_s=0.25, jitter=0.0)
        rng = random.Random(0)
        assert pol.backoff_s(1, rng) == pytest.approx(0.1)
        assert pol.backoff_s(2, rng) == pytest.approx(0.2)
        assert pol.backoff_s(3, rng) == pytest.approx(0.25)  # capped


class TestPassThrough:
    def test_results_in_order(self):
        rb = ResilientBackend(SerialBackend(), _policy())
        res = rb.run_tasks([lambda i=i: i * 10 for i in range(5)])
        assert [r.value for r in res] == [0, 10, 20, 30, 40]
        assert [r.index for r in res] == list(range(5))
        rb.close()

    def test_empty_batch(self):
        rb = ResilientBackend(SerialBackend(), _policy())
        assert rb.run_tasks([]) == []
        rb.close()

    def test_string_inner_constructed(self):
        rb = ResilientBackend("serial", _policy())
        assert innermost_backend(rb).name == "serial"
        assert rb.run_tasks([lambda: 1])[0].value == 1
        rb.close()


class TestRetry:
    def test_transient_failure_recovers(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        rb = ResilientBackend(SerialBackend(), _policy(max_retries=3))
        assert rb.run_tasks([flaky])[0].value == "ok"
        t = rb.last_batch.tasks[0]
        assert t.retries == 2 and t.winner == "retry"
        assert len(t.failures) == 2
        rb.close()

    def test_exhausted_retries_raise_batch_error_with_history(self):
        rb = ResilientBackend(SerialBackend(), _policy(max_retries=1))

        def doomed():
            raise ValueError("always broken")

        with pytest.raises(BatchError) as exc_info:
            rb.run_tasks([doomed, lambda: 1])
        err = exc_info.value
        assert err.task_indices == (0,)
        assert err.failures[0].attempts == 2
        assert "always broken" in str(err)
        # The surviving sibling still shows up in telemetry as a win.
        assert rb.last_batch.tasks[1].ok
        rb.close()

    def test_all_failures_collected_not_just_first(self):
        def bad_a():
            raise ValueError("a")

        def bad_b():
            raise ValueError("b")

        rb = ResilientBackend(SerialBackend(), _policy(max_retries=0))
        with pytest.raises(BatchError) as exc_info:
            rb.run_tasks([bad_a, lambda: 1, bad_b])
        assert exc_info.value.task_indices == (0, 2)
        rb.close()

    def test_backoff_delays_deterministic_across_runs(self):
        def run_once():
            inj = FaultInjector(seed=5, error_rate=1.0, faulty_attempts=2)
            rb = ResilientBackend(
                FaultyBackend(SerialBackend(), inj),
                _policy(max_retries=3, seed=17),
            )
            rb.run_tasks([lambda: 1, lambda: 2])
            delays = rb.last_batch.backoff_delays_s
            rb.close()
            return delays

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) == 4  # 2 tasks x 2 transient faults


class TestTimeout:
    def test_hung_task_is_abandoned_and_retried(self):
        calls = {"n": 0}
        release = threading.Event()

        def hangs_once():
            calls["n"] += 1
            if calls["n"] == 1:
                release.wait(timeout=30.0)  # way past the deadline
                raise RuntimeError("late failure must be ignored")
            return "recovered"

        rb = ResilientBackend(
            ThreadBackend(max_workers=4),
            _policy(max_retries=2, timeout_s=0.2),
        )
        t0 = time.monotonic()
        res = rb.run_tasks([hangs_once])
        wall = time.monotonic() - t0
        release.set()
        assert res[0].value == "recovered"
        assert wall < 5.0  # did not wait out the hang
        t = rb.last_batch.tasks[0]
        assert t.timeouts == 1 and t.retries == 1 and t.winner == "retry"
        assert any(f.kind == "timeout" for f in t.failures)
        rb.close()

    def test_timeout_exhaustion_reports_timeout_kind(self):
        release = threading.Event()

        def hangs():
            release.wait(timeout=30.0)

        rb = ResilientBackend(
            ThreadBackend(max_workers=4),
            _policy(max_retries=1, timeout_s=0.15),
        )
        with pytest.raises(BatchError) as exc_info:
            rb.run_tasks([hangs])
        release.set()
        assert exc_info.value.failures[0].kind == "timeout"
        rb.close()


class TestSpeculation:
    def test_straggler_gets_speculative_duplicate_first_finisher_wins(self):
        calls = {"n": 0}
        lock = threading.Lock()
        release = threading.Event()

        def straggler():
            with lock:
                calls["n"] += 1
                mine = calls["n"]
            if mine == 1:  # primary attempt: crawls
                release.wait(timeout=30.0)
                return "slow"
            return "fast"  # speculative duplicate: instant

        pol = RetryPolicy(
            max_retries=0, speculate=True, straggler_factor=2.0,
            speculation_floor_s=0.1, min_completed_for_speculation=2,
            backoff_base_s=0.001,
        )
        rb = ResilientBackend(ThreadBackend(max_workers=4), pol)
        t0 = time.monotonic()
        res = rb.run_tasks(
            [straggler, lambda: "a", lambda: "b", lambda: "c"]
        )
        wall = time.monotonic() - t0
        release.set()
        assert res[0].value == "fast"
        assert wall < 5.0
        t = rb.last_batch.tasks[0]
        assert t.speculations == 1 and t.winner == "speculative"
        rb.close()

    def test_speculation_disabled_waits_for_primary(self):
        def slowish():
            time.sleep(0.3)
            return "slow"

        pol = _policy(max_retries=0)  # speculate=False
        rb = ResilientBackend(ThreadBackend(max_workers=4), pol)
        res = rb.run_tasks([slowish, lambda: 1, lambda: 2])
        assert res[0].value == "slow"
        assert rb.last_batch.speculations == 0
        rb.close()


class TestTelemetry:
    def test_execution_telemetry_accumulates(self):
        reg = MetricsRegistry()
        rb = ResilientBackend(SerialBackend(), _policy())
        rb.metrics = reg
        rb.run_tasks([lambda: 1])
        rb.run_tasks([lambda: 2, lambda: 3])
        assert reg.value("resilience.batches") == 2
        assert reg.value("resilience.tasks") == 3
        assert reg.value("resilience.dispatches") == 3
        assert reg.value("resilience.retries") == 0
        assert len(rb.last_batch.tasks) == 2  # only the latest batch is kept
        rb.close()

    def test_injected_faults_visible_in_telemetry(self):
        inj = FaultInjector(seed=3, error_rate=1.0, faulty_attempts=1)
        rb = ResilientBackend(
            FaultyBackend(SerialBackend(), inj), _policy(max_retries=2)
        )
        rb.metrics = MetricsRegistry()
        rb.run_tasks([lambda: i for i in range(4)])
        assert rb.last_batch.retries == 4
        assert rb.metrics.value("resilience.retries") == 4
        assert inj.counts()["error"] == 4
        rb.close()


class TestAttemptsRunOnTheInnerWorkers:
    def test_serial_attempts_run_in_order_on_the_caller(self):
        """On a serial inner backend every attempt, retries included,
        runs on the calling thread, one at a time, in task order."""
        lock = threading.Lock()
        live = {"now": 0, "peak": 0}
        ran = []

        def task(i):
            def body():
                with lock:
                    live["now"] += 1
                    live["peak"] = max(live["peak"], live["now"])
                ran.append((i, threading.get_ident()))
                time.sleep(0.005)  # room for a concurrent attempt to show
                with lock:
                    live["now"] -= 1
                return i
            return body

        inj = FaultInjector(seed=0, scripted={(1, 0): "error"})
        rb = ResilientBackend(
            FaultyBackend(SerialBackend(), inj), _policy(max_retries=2)
        )
        res = rb.run_tasks([task(i) for i in range(4)])
        rb.close()
        assert [r.value for r in res] == [0, 1, 2, 3]
        assert rb.last_batch.retries == 1  # task 1's injected error
        assert live["peak"] == 1
        caller = threading.get_ident()
        assert [ident for _i, ident in ran] == [caller] * 4
        # The primaries in order, then the retry of task 1.
        assert [i for i, _ident in ran] == [0, 2, 3, 1]

    def test_warm_thread_pool_supervision_starts_no_thread(self, monkeypatch):
        """A supervised batch, retry included, runs on the pool's own
        workers: no thread is started per attempt."""
        pool = ThreadBackend(max_workers=2)
        barrier = threading.Barrier(2)
        pool.run_tasks([barrier.wait, barrier.wait])  # both workers up
        inj = FaultInjector(seed=0, scripted={(0, 0): "error"})
        rb = ResilientBackend(
            FaultyBackend(pool, inj), _policy(max_retries=2)
        )
        started = []
        real_start = threading.Thread.start

        def counting_start(self):
            started.append(self.name)
            real_start(self)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        res = rb.run_tasks([lambda i=i: i for i in range(4)])
        monkeypatch.undo()
        rb.close()
        assert [r.value for r in res] == [0, 1, 2, 3]
        assert rb.last_batch.retries == 1
        assert inj.counts()["error"] == 1
        assert started == []
