"""The feedback controller: observe -> evaluate -> act, closed loop.

Includes the acceptance scenario for this layer: a seeded chaos run
that kills the ``processes`` degradation level mid-batch and asserts —
purely through the metrics snapshot/delta API — that the controller
noticed the structured degradation and recovery events, and that they
leave the autotuner's one threshold alone.
"""

import warnings

import pytest

from repro.control import SLO, Controller
from repro.execution.autotune import Autotuner
from repro.execution.tuning import ProbeSuite
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import (
    DegradationWarning,
    DegradingBackend,
    FaultInjector,
    FaultyBackend,
    RetryPolicy,
)

_FAST = RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01,
                    speculate=False)


class _StubTuner(Autotuner):
    """Probe-free autotuner: calibrations return canned timings."""

    def __init__(self, cache_path):
        super().__init__(cache_path=cache_path)
        self.calibrations = 0

    def probe_suite(self) -> ProbeSuite:
        # Serial 1 ns/elem, fork/join 900 ns, p=2: the cost model
        # crosses at 900 / (1 * (0.95 - 0.5)) = 2000 elements -> 2048.
        self.calibrations += 1
        return ProbeSuite(
            serial_vs_parallel=((1 << 10, 1024e-9, 1412e-9),
                                (1 << 18, 262144e-9, 131972e-9)),
            p=2,
        )


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def tuner(tmp_path):
    return _StubTuner(tmp_path / "tune.json")


class TestSteadyState:
    def test_healthy_window_takes_no_action(self, registry, tuner):
        tuner.seed(serial_cutover=4096)
        registry.gauge("balance.work_spread").set(1.0)
        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            decision = ctl.step()
        assert decision.report.status == "PASS"
        assert decision.actions == ()
        assert not decision.retuned
        assert "none (steady)" in decision.describe()

    def test_steps_are_counted_and_windowed(self, registry, tuner):
        tuner.seed()
        ctl = Controller(SLO(), registry, autotuner=tuner)
        before = registry.snapshot()
        ctl.step()
        ctl.step()
        delta = registry.delta(before)
        assert delta["control.steps"] == 2
        assert delta["control.last_status"] == 0.0  # PASS
        # control.* metrics written by step N must not leak into the
        # window step N+1 evaluates (the snapshot is taken post-publish)
        assert ctl.step().delta.get("control.steps", 0) == 0

    def test_delta_window_forgets_old_failures(self, registry, tuner):
        tuner.seed()
        ctl = Controller(SLO(max_dispatches_per_call=4.0), registry,
                         autotuner=tuner)
        registry.gauge("exec.dispatches_per_call").set(100.0)
        first = ctl.step()
        assert first.report.status == "FAIL"
        # gauge recovers; the next window judges the current value
        registry.gauge("exec.dispatches_per_call").set(1.0)
        second = ctl.step()
        assert second.report.clause("max_dispatches_per_call").status == "PASS"


class TestRetuneRules:
    def test_dispatch_blowup_widens_serial_lane(self, registry, tuner):
        tuner.seed(serial_cutover=4096)
        registry.gauge("exec.dispatches_per_call").set(100.0)
        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            decision = ctl.step()
        kinds = [a.kind for a in decision.actions]
        assert kinds == ["seed"]
        assert tuner.thresholds().serial_cutover == 8192
        # bounded growth: repeated failures stop at MAX_SERIAL_CUTOVER
        from repro.control.controller import MAX_SERIAL_CUTOVER
        ctl2 = Controller(SLO(), registry, autotuner=tuner)
        for _ in range(40):
            ctl2.step()
        assert tuner.thresholds().serial_cutover <= MAX_SERIAL_CUTOVER

    def test_p99_fail_triggers_recalibration(self, registry, tuner):
        tuner.seed()
        hist = registry.histogram("slo.ns_per_elem")
        for _ in range(10):
            hist.observe(50_000.0)  # far above the 1200 ns default limit
        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            decision = ctl.step()
        assert [a.kind for a in decision.actions] == ["recalibrate"]
        assert tuner.calibrations == 1
        assert tuner.thresholds().source == "probe"
        assert tuner.thresholds().serial_cutover == 2048  # canned suite

    def test_fingerprint_change_forces_recalibration(
        self, registry, tuner, monkeypatch
    ):
        tuner.seed(serial_cutover=4096)
        ctl = Controller(SLO(), registry, autotuner=tuner)
        monkeypatch.setattr("os.cpu_count", lambda: 999)
        decision = ctl.step()
        assert any(a.kind == "recalibrate" for a in decision.actions)
        assert tuner.calibrations == 1
        # and the rule does not re-fire while the fingerprint is stable
        assert not ctl.step().retuned

    def test_imbalance_fail_recommends_fewer_workers(self, registry, tuner):
        tuner.seed()
        registry.gauge("balance.time_imbalance").set(3.0)
        registry.gauge("balance.workers").set(8.0)
        slo = SLO(max_time_imbalance=1.5)
        with Controller(slo, registry, autotuner=tuner) as ctl:
            decision = ctl.step()
        acts = {a.kind: a for a in decision.actions}
        assert acts["recommend-p"].details["p"] == 4
        assert registry.value("control.recommended_p") == 4.0
        # advisory only: no retune happened
        assert not decision.retuned


class TestChaosAcceptance:
    def test_processes_degradation_is_only_recorded(
        self, registry, tuner, monkeypatch
    ):
        """Seeded chaos: the 'processes' level dies mid-batch; the
        controller must observe the structured event — asserted via
        snapshot/delta — and leave the tuner alone: the chain already
        routes around the dead level, and the serial cutover did not
        move."""
        from repro.backends.serial import SerialBackend

        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        tuner.seed(serial_cutover=2048)

        doomed = FaultyBackend(
            SerialBackend(),
            FaultInjector(seed=11, error_rate=1.0, faulty_attempts=None),
        )
        doomed.name = "processes"  # impersonate the processes level
        chain = DegradingBackend([doomed, "serial"], policy=_FAST)

        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            before = registry.snapshot()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                results = chain.run_tasks([lambda: 42, lambda: 43])
            assert [r.value for r in results] == [42, 43]
            decision = ctl.step()
        chain.close()

        assert any(ev.backend == "processes" for ev in decision.events)
        assert "processes" in decision.describe()
        assert decision.actions == ()
        assert not decision.retuned

        # ... and all of it is visible through the metrics window alone
        delta = registry.delta(before)
        assert delta["control.degradations"] >= 1
        assert delta.get("control.retunes", 0) == 0
        assert tuner.calibrations == 0
        assert tuner.thresholds().serial_cutover == 2048
        assert tuner.choose_backend("threads", 1 << 20) == "threads"

    def test_events_outside_start_stop_are_not_consumed(
        self, registry, tuner
    ):
        from repro.backends.serial import SerialBackend

        tuner.seed()
        doomed = FaultyBackend(
            SerialBackend(),
            FaultInjector(seed=3, error_rate=1.0, faulty_attempts=None),
        )
        doomed.name = "processes"
        ctl = Controller(SLO(), registry, autotuner=tuner)  # never started
        chain = DegradingBackend([doomed, "serial"], policy=_FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            chain.run_tasks([lambda: 1])
        chain.close()
        decision = ctl.step()
        assert decision.events == ()
        assert registry.value("control.degradations", 0) == 0


class TestRecoveryAcceptance:
    def _transient_chain(self, clock, registry=None, seed=11):
        from repro.backends.serial import SerialBackend
        from repro.resilience import RecoveryPolicy

        injector = FaultInjector(seed=seed, error_rate=1.0,
                                 faulty_attempts=None)
        doomed = FaultyBackend(SerialBackend(), injector)
        doomed.name = "processes"
        chain = DegradingBackend(
            [doomed, "serial"], policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=5.0, jitter=0.0), clock=clock,
        )
        if registry is not None:
            chain.telemetry.metrics = registry
        return chain, injector

    def test_recovery_is_recorded_without_retuning(
        self, registry, tuner, monkeypatch
    ):
        """Full loop: the processes level dies, the breaker re-probe
        proves it healthy again — with a fake clock — and both events
        reach the decision and the metrics window while the tuner keeps
        its calibration."""
        from tests.resilience.test_breaker import FakeClock

        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        tuner.seed(serial_cutover=2048)
        clock = FakeClock()
        chain, injector = self._transient_chain(clock, registry)

        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                chain.run_tasks([lambda: 1])  # processes dies
            fall = ctl.step()
            assert [ev.backend for ev in fall.events][:1] == ["processes"]
            assert not fall.retuned

            # outage ends; the breaker's cooldown elapses (fake clock,
            # no sleeping); the background reprobe promotes the level
            injector.disarm()
            clock.advance(5.0)
            before = registry.snapshot()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                assert chain.reprobe() == ["processes"]
            decision = ctl.step()
        chain.close()

        assert [rec.backend for rec in decision.recoveries] == ["processes"]
        assert decision.recoveries[0].outage_s == pytest.approx(5.0)
        assert "recovered" in decision.describe()
        assert decision.actions == ()

        # ... visible through the metrics window alone
        delta = registry.delta(before)
        assert delta["control.recoveries"] == 1
        assert delta["resilience.recoveries"] == 1
        assert delta.get("control.retunes", 0) == 0

        assert tuner.calibrations == 0
        assert tuner.thresholds().serial_cutover == 2048

    def test_repeated_recoveries_never_recalibrate(self, registry, tuner):
        """Regression: every ``processes`` recovery used to re-run the
        whole probe suite (the inert process cutover always read
        "never"), rewriting the cache and re-drawing the serial cutover
        each time.  Several recoveries must leave both untouched."""
        from repro.resilience.degrade import RecoveryEvent, _emit_recovery

        tuner.seed(serial_cutover=4096)
        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            for cycle in range(4):
                _emit_recovery(RecoveryEvent(
                    backend="processes", outage_s=1.0 + cycle, opens=1))
                decision = ctl.step()
                assert len(decision.recoveries) == 1
                assert decision.actions == ()
        assert registry.value("control.recoveries") == 4
        assert tuner.calibrations == 0
        assert tuner.thresholds().serial_cutover == 4096
        assert tuner.thresholds().source == "seeded"
        assert not tuner.cache_path.exists()

    def test_recovery_leaves_a_healthy_cutover_alone(self, registry, tuner):
        """A recovery event must not churn the tuner."""
        from repro.resilience.degrade import RecoveryEvent, _emit_recovery

        tuner.seed(serial_cutover=1 << 16)
        with Controller(SLO(), registry, autotuner=tuner) as ctl:
            _emit_recovery(RecoveryEvent(
                backend="processes", outage_s=1.0, opens=1))
            decision = ctl.step()
        assert len(decision.recoveries) == 1
        assert decision.actions == ()
        assert tuner.thresholds().serial_cutover == 1 << 16


class TestWatch:
    def test_watch_drives_cycles_and_traces(self, registry, tuner):
        tuner.seed()
        tracer = Tracer()
        calls = []

        def workload(reg):
            calls.append(True)
            reg.gauge("balance.work_spread").set(1.0)

        ctl = Controller(SLO(), registry, autotuner=tuner, tracer=tracer)
        with ctl:
            decisions = list(ctl.watch(workload, cycles=3, interval_s=0.0))
        assert len(decisions) == 3
        assert len(calls) == 3
        names = [s.name for s in tracer.spans()]
        assert names.count("control.cycle") == 3
        assert names.count("control.step") == 3
