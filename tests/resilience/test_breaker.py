"""Circuit breaker: state machine, seeded cooldowns, and recovery.

Includes this PR's acceptance scenario: a seeded transient failure
kills the ``processes`` level (degrading to ``threads``), the fault
clears, and within the breaker's cooldown the chain *re-promotes* —
observed end to end through the recovery :class:`DegradationWarning`
and the ``resilience.recoveries`` counter in ``registry.delta``, with
an injected clock instead of wall-time sleeps.
"""

import warnings

import pytest

from repro.backends.serial import SerialBackend
from repro.errors import InputError
from repro.execution.tuning import ProbeSuite
from repro.obs import MetricsRegistry
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    DegradationWarning,
    DegradingBackend,
    FaultInjector,
    FaultyBackend,
    RecoveryPolicy,
    RetryPolicy,
)

_FAST = RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01,
                    speculate=False)


class FakeClock:
    """Injectable monotonic time for deterministic cooldown tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(InputError):
            RecoveryPolicy(cooldown_s=0.0)
        with pytest.raises(InputError):
            RecoveryPolicy(multiplier=0.5)
        with pytest.raises(InputError):
            RecoveryPolicy(cooldown_cap_s=1.0, cooldown_s=2.0)
        with pytest.raises(InputError):
            RecoveryPolicy(jitter=-0.1)

    def test_cooldown_grows_exponentially_and_caps(self):
        policy = RecoveryPolicy(cooldown_s=1.0, multiplier=2.0,
                                cooldown_cap_s=8.0, jitter=0.0)
        assert policy.cooldown_for("x", 1) == 1.0
        assert policy.cooldown_for("x", 2) == 2.0
        assert policy.cooldown_for("x", 4) == 8.0
        assert policy.cooldown_for("x", 10) == 8.0  # capped

    def test_jitter_is_seeded_and_bounded(self):
        policy = RecoveryPolicy(cooldown_s=1.0, jitter=0.25, seed=42)
        first = policy.cooldown_for("threads", 1)
        assert first == policy.cooldown_for("threads", 1)  # reproducible
        assert 1.0 <= first <= 1.25
        # different names draw from different streams
        assert first != policy.cooldown_for("processes", 1)


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker("lvl", failure_threshold=3,
                                 policy=RecoveryPolicy(), clock=clock)
        assert breaker.state == CLOSED and breaker.allows()
        assert not breaker.record_failure("one")
        assert not breaker.record_failure("two")
        assert breaker.strikes == 2
        assert breaker.record_failure("three")  # this strike opens
        assert breaker.state == OPEN and not breaker.allows()
        assert breaker.last_reason == "three"

    def test_probe_gated_by_cooldown(self):
        clock = FakeClock()
        policy = RecoveryPolicy(cooldown_s=5.0, jitter=0.0)
        breaker = CircuitBreaker("lvl", policy=policy, clock=clock)
        breaker.record_failure("boom")
        assert breaker.state == OPEN
        assert not breaker.try_probe()  # cooldown not yet expired
        assert breaker.cooldown_remaining() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.cooldown_remaining() == 0.0
        assert breaker.try_probe()
        assert breaker.state == HALF_OPEN
        # exactly one caller wins the probe slot
        assert not breaker.try_probe()

    def test_probe_success_closes_and_reports_outage(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "lvl", policy=RecoveryPolicy(cooldown_s=2.0, jitter=0.0),
            clock=clock)
        breaker.record_failure("boom")
        clock.advance(3.0)
        assert breaker.try_probe()
        outage = breaker.record_probe_success()
        assert outage == pytest.approx(3.0)
        assert breaker.state == CLOSED and breaker.opens == 0

    def test_probe_failure_grows_the_cooldown_ladder(self):
        clock = FakeClock()
        policy = RecoveryPolicy(cooldown_s=1.0, multiplier=2.0,
                                cooldown_cap_s=100.0, jitter=0.0)
        breaker = CircuitBreaker("lvl", policy=policy, clock=clock)
        breaker.record_failure("boom")
        clock.advance(1.0)
        assert breaker.try_probe()
        breaker.record_probe_failure("still dead")
        assert breaker.state == OPEN and breaker.opens == 2
        # second cooldown is 2x the first
        assert breaker.cooldown_remaining() == pytest.approx(2.0)

    def test_half_open_batch_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "lvl", policy=RecoveryPolicy(cooldown_s=1.0, jitter=0.0),
            clock=clock)
        breaker.record_failure("boom")
        clock.advance(1.0)
        assert breaker.try_probe()
        assert breaker.record_failure("mid-probe batch death")
        assert breaker.state == OPEN and breaker.opens == 2

    def test_no_policy_is_a_one_way_ratchet(self):
        clock = FakeClock()
        breaker = CircuitBreaker("lvl", clock=clock)  # policy=None
        breaker.record_failure("boom")
        assert breaker.state == OPEN
        clock.advance(1e9)
        assert not breaker.try_probe()  # never half-opens
        assert breaker.cooldown_remaining() == float("inf")

    def test_describe_mentions_state(self):
        breaker = CircuitBreaker("threads")
        assert "closed" in breaker.describe()
        breaker.record_failure("x")
        assert "open" in breaker.describe()


def _transient_processes(seed: int = 11):
    """A level named 'processes' whose faults can be switched off."""
    injector = FaultInjector(seed=seed, error_rate=1.0, faulty_attempts=None)
    doomed = FaultyBackend(SerialBackend(), injector)
    doomed.name = "processes"  # impersonate the processes level
    return doomed, injector


class TestEndToEndRecovery:
    def test_transient_death_recovers_within_cooldown(self):
        """The acceptance scenario: processes dies -> threads serves ->
        breaker re-probes after its cooldown -> processes re-promotes,
        all observed via the recovery warning + registry.delta."""
        registry = MetricsRegistry()
        clock = FakeClock()
        doomed, injector = _transient_processes()
        chain = DegradingBackend(
            [doomed, "threads"], policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=5.0, jitter=0.0),
            clock=clock, max_workers=2,
        )
        chain.metrics = registry
        try:
            before = registry.snapshot()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DegradationWarning)
                # Batch 1: processes dies, threads answers.
                results = chain.run_tasks([lambda: 42])
                assert [r.value for r in results] == [42]
                assert chain.active_backend == "threads"
                assert chain.breaker_states()["processes"] == "open"

                # The fault clears, but the cooldown hasn't expired:
                # dispatches stay on threads (no premature re-probe).
                injector.disarm()
                chain.run_tasks([lambda: 1])
                assert chain.active_backend == "threads"
                assert registry.value("resilience.recoveries", 0) == 0

                # Clock crosses the cooldown: the next dispatch probes,
                # the probe passes, and the batch runs on processes.
                clock.advance(5.0)
                results = chain.run_tasks([lambda: 43])
                assert [r.value for r in results] == [43]
            assert chain.active_backend == "processes"
            assert chain.breaker_states()["processes"] == "closed"


            # Observed end to end: the warning names the level and the
            # outage...
            recovered = [str(w.message) for w in caught
                         if "recovery" in str(w.message)]
            assert len(recovered) == 1
            assert "'processes'" in recovered[0]
            assert "5.00s out of rotation" in recovered[0]
            # ... and the registry window counts one fall and one
            # recovery (not a sleep-and-hope).
            delta = registry.delta(before)
            assert delta["resilience.degradations"] == 1
            assert delta["resilience.recoveries"] == 1
        finally:
            chain.close()

    def test_failed_reprobe_reopens_with_longer_cooldown(self):
        clock = FakeClock()
        doomed, injector = _transient_processes(seed=5)
        chain = DegradingBackend(
            [doomed, "serial"], policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=2.0, multiplier=2.0,
                                    jitter=0.0),
            clock=clock,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            chain.run_tasks([lambda: 1])  # opens the breaker
            clock.advance(2.0)
            chain.run_tasks([lambda: 2])  # re-probe fails (still faulty)
        states = chain.breaker_states()
        assert states["processes"] == "open"
        # the ladder grew: next probe waits 2x as long
        breaker = chain._breakers[0]
        assert breaker.opens == 2
        assert breaker.cooldown_remaining() == pytest.approx(4.0)
        chain.close()

    def test_explicit_reprobe_recovers_an_idle_chain(self):
        """reprobe() promotes without any traffic — the serve front
        door's background loop depends on this."""
        clock = FakeClock()
        doomed, injector = _transient_processes(seed=3)
        chain = DegradingBackend(
            [doomed, "serial"], policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=1.0, jitter=0.0),
            clock=clock,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            chain.run_tasks([lambda: 1])
            assert chain.active_backend == "serial"
            injector.disarm()
            assert chain.reprobe() == []  # cooldown not expired
            clock.advance(1.0)
            assert chain.reprobe() == ["processes"]
        assert chain.active_backend == "processes"
        chain.close()

    def test_default_recovery_none_stays_degraded(self):
        """recovery=None preserves the pre-breaker one-way ratchet."""
        clock = FakeClock()
        doomed, injector = _transient_processes(seed=7)
        chain = DegradingBackend([doomed, "serial"], policy=_FAST,
                                 failure_threshold=1, clock=clock)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            chain.run_tasks([lambda: 1])
            injector.disarm()
            clock.advance(1e9)
            assert chain.reprobe() == []
            chain.run_tasks([lambda: 2])
        assert chain.active_backend == "serial"
        chain.close()


class TestFallsAndRecoveriesLeaveTheTuner:
    """A fall or a recovery is counted once, into the chain's registry,
    and retunes nothing: the serial cutover does not depend on which
    chain level is up, so the process-wide tuner keeps its thresholds,
    never probes and never writes its cache."""

    @pytest.fixture
    def tuner(self, tmp_path, monkeypatch):
        from repro.execution.autotune import get_autotuner

        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(tmp_path / "t.json"))
        tuner = get_autotuner()
        tuner.seed(serial_cutover=2048)
        probes = []
        monkeypatch.setattr(tuner, "probe_suite",
                            lambda: probes.append(1) or ProbeSuite())
        monkeypatch.setattr(tuner, "probes", probes, raising=False)
        yield tuner
        tuner.forget()

    @staticmethod
    def _chain(registry, clock, seed=11):
        doomed, injector = _transient_processes(seed)
        chain = DegradingBackend(
            [doomed, "serial"], policy=_FAST, failure_threshold=1,
            recovery=RecoveryPolicy(cooldown_s=5.0, jitter=0.0), clock=clock,
        )
        chain.metrics = registry
        return chain, injector

    @staticmethod
    def _fall(chain):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            assert [r.value for r in chain.run_tasks([lambda: 42])] == [42]

    @staticmethod
    def _recover(chain, injector, clock):
        """The outage ends and the cooldown elapses (fake clock); the
        background re-probe promotes the level."""
        injector.disarm()
        clock.advance(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            assert chain.reprobe() == ["processes"]

    @staticmethod
    def _untouched(tuner, cutover):
        assert tuner.probes == []
        th = tuner.thresholds()
        assert (th.serial_cutover, th.source) == (cutover, "seeded")
        assert not tuner.cache_path.exists()

    def test_processes_degradation_is_only_recorded(self, tuner):
        registry = MetricsRegistry()
        chain, _ = self._chain(registry, FakeClock())
        before = registry.snapshot()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            assert [r.value for r in chain.run_tasks([lambda: 42])] == [42]
        chain.close()

        assert any("'processes'" in str(w.message) for w in caught)
        delta = registry.delta(before)
        assert delta["resilience.degradations"] == 1
        assert [k for k in delta if "degradation" in k] == [
            "resilience.degradations"]
        self._untouched(tuner, 2048)
        assert tuner.choose_backend("threads", 1 << 20) == "threads"

    def _recover_once(self, tuner):
        registry = MetricsRegistry()
        clock = FakeClock()
        chain, injector = self._chain(registry, clock)
        self._fall(chain)
        before = registry.snapshot()
        self._recover(chain, injector, clock)
        chain.close()
        return registry.delta(before)

    def test_recovery_is_recorded_without_retuning(self, tuner):
        delta = self._recover_once(tuner)
        assert delta["resilience.recoveries"] == 1
        assert [k for k in delta if "recover" in k] == [
            "resilience.recoveries"]
        self._untouched(tuner, 2048)

    def test_recovery_leaves_a_healthy_cutover_alone(self, tuner):
        """A cutover far from the default survives a recovery as is."""
        tuner.seed(serial_cutover=1 << 16)
        self._recover_once(tuner)
        self._untouched(tuner, 1 << 16)

    def test_repeated_recoveries_never_recalibrate(self, tuner):
        """Every ``processes`` recovery once re-ran the probe suite,
        rewriting the cache and re-drawing the serial cutover."""
        registry = MetricsRegistry()
        clock = FakeClock()
        chain, injector = self._chain(registry, clock)
        for _ in range(4):
            injector.rearm()
            self._fall(chain)
            self._recover(chain, injector, clock)
        chain.close()

        assert registry.value("resilience.degradations") == 4
        assert registry.value("resilience.recoveries") == 4
        self._untouched(tuner, 2048)
