"""Adaptive autotuner: thresholds, persistence, rerouting policy."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.execution.autotune import (
    NEVER,
    Autotuner,
    Thresholds,
    autotune_enabled,
)


def test_kill_switch_disables_everything(monkeypatch):
    monkeypatch.setenv("REPRO_AUTOTUNE", "0")
    assert not autotune_enabled()
    tuner = Autotuner()
    tuner.seed(serial_cutover=1 << 40)
    # No rerouting — requests pass through verbatim.
    assert tuner.choose_backend("threads", 16) == "threads"


def test_kill_switch_is_read_once_per_calibration(monkeypatch, tmp_path):
    """``REPRO_AUTOTUNE`` is read when a tuner is seeded or first
    consulted after it is built or forgotten, not on every call."""
    from repro.execution import autotune as at

    reads = []
    real = at.autotune_enabled
    monkeypatch.setattr(at, "autotune_enabled",
                        lambda: reads.append(1) or real())
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1 << 20)
    for _ in range(100):
        assert tuner.choose_backend("threads", 512) == "serial"
    assert len(reads) == 1
    monkeypatch.setenv("REPRO_AUTOTUNE", "0")
    tuner.forget()
    assert tuner.choose_backend("threads", 512) == "threads"
    assert tuner.choose_backend("threads", 512) == "threads"
    assert len(reads) == 2


def test_choose_backend_reroutes_small_to_serial(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=10_000)
    assert tuner.choose_backend("threads", 9_999) == "serial"
    assert tuner.choose_backend("processes", 512) == "serial"
    assert tuner.choose_backend("threads", 10_000) == "threads"


def test_choose_backend_never_promotes_threads_to_processes(monkeypatch, tmp_path):
    """The serial cutover is the only decision: a seeded
    ``process_cutover`` (as a frozen caller may still pass) is inert."""
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1_000, process_cutover=1 << 20)
    assert tuner.choose_backend("threads", 1 << 21) == "threads"
    # processes stays processes; it is never demoted to threads.
    assert tuner.choose_backend("processes", 1 << 21) == "processes"


def test_choose_backend_never_touches_other_names(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1 << 40)
    assert tuner.choose_backend("serial", 4) == "serial"
    assert tuner.choose_backend("simulated", 4) == "simulated"


def test_persistence_round_trip(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    path = tmp_path / "tune.json"
    tuner = Autotuner(cache_path=path)
    tuner.seed(serial_cutover=12345)
    tuner._store(tuner.thresholds())
    assert path.exists()
    fresh = Autotuner(cache_path=path)
    th = fresh.thresholds()
    assert th.serial_cutover == 12345
    assert th.calibrated
    assert th.source.startswith("cache:")


def test_corrupt_cache_falls_back_to_probe_or_defaults(tmp_path):
    path = tmp_path / "tune.json"
    path.write_text("{not json")
    tuner = Autotuner(cache_path=path)
    assert tuner._load() is None


def test_clear_removes_cache_file(monkeypatch, tmp_path):
    path = tmp_path / "tune.json"
    tuner = Autotuner(cache_path=path)
    tuner.seed(serial_cutover=5)
    tuner._store(tuner.thresholds())
    assert path.exists()
    tuner.clear()
    assert not path.exists()


def test_thresholds_calibrates_and_persists(monkeypatch, tmp_path):
    """End-to-end probe run: real timings, written once, reloaded after."""
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    path = tmp_path / "tune.json"
    tuner = Autotuner(cache_path=path)
    th = tuner.thresholds()
    assert th.calibrated
    assert path.exists()
    saved = json.loads(path.read_text())
    assert saved["serial_cutover"] == th.serial_cutover
    # only the measured threshold is stored
    assert set(saved) == {"serial_cutover", "calibrated", "source",
                          "fingerprint"}


def test_rerouted_calls_still_produce_identical_results(monkeypatch, tmp_path):
    """Semantics never change under rerouting (same stable merge)."""
    from repro.core.parallel_merge import parallel_merge
    from repro.execution import autotune as at

    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    tuner = Autotuner(cache_path=tmp_path / "tune.json")
    tuner.seed(serial_cutover=1 << 30)  # everything reroutes to serial
    monkeypatch.setattr(at, "_GLOBAL", tuner)

    g = np.random.default_rng(3)
    a = np.sort(g.integers(0, 1000, 600))
    b = np.sort(g.integers(0, 1000, 400))
    got = parallel_merge(a, b, 4, backend="threads")
    want = np.sort(np.concatenate([a, b]), kind="mergesort")
    assert np.array_equal(got, want)


def test_default_thresholds_are_conservative():
    th = Thresholds()
    assert not th.calibrated
    assert th.process_cutover == NEVER
    assert th.source == "default"


class TestHostFingerprint:
    """The cache is keyed to the host shape: a calibration made on a
    different machine (or under different REPRO_* overrides) is stale."""

    def _seeded_cache(self, path):
        tuner = Autotuner(cache_path=path)
        tuner.seed(serial_cutover=12345)
        tuner._store(tuner.thresholds())
        return tuner

    def test_matching_fingerprint_loads(self, tmp_path):
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        again = Autotuner(cache_path=path)
        assert again.cache_state() == "fresh"
        assert again.thresholds().serial_cutover == 12345

    def test_cpu_count_change_forces_recalibration(self, tmp_path, monkeypatch):
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        monkeypatch.setattr("os.cpu_count", lambda: 999)
        stale = Autotuner(cache_path=path)
        assert stale._load() is None
        assert stale.cache_state() == "stale"

    def test_repro_env_change_forces_recalibration(self, tmp_path, monkeypatch):
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        monkeypatch.setenv("REPRO_SOME_NEW_OVERRIDE", "1")
        stale = Autotuner(cache_path=path)
        assert stale._load() is None
        assert stale.cache_state() == "stale"

    def test_non_repro_env_is_ignored(self, tmp_path, monkeypatch):
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        monkeypatch.setenv("SOME_UNRELATED_VAR", "1")
        assert Autotuner(cache_path=path).cache_state() == "fresh"

    def test_legacy_payload_without_fingerprint_is_stale(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({
            "serial_cutover": 777, "process_cutover": NEVER,
            "tiny_kernel_cutover": 8,
        }))
        assert Autotuner(cache_path=path).cache_state() == "stale"

    @pytest.mark.parametrize("retired", [False, True])
    def test_policy_2_cache_loads_with_or_without_retired_keys(
        self, tmp_path, retired
    ):
        """Policy-2 caches written before the two unmeasured thresholds
        were dropped still carry them; they load, and the keys are
        ignored (``TUNING_POLICY`` did not change: the serial rule is the
        same)."""
        from repro.execution.tuning import TUNING_POLICY

        assert TUNING_POLICY == 2
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        payload = json.loads(path.read_text())
        assert "process_cutover" not in payload
        assert "tiny_kernel_cutover" not in payload
        assert payload["fingerprint"]["policy"] == 2
        if retired:
            payload.update(process_cutover=1 << 16, tiny_kernel_cutover=8)
        path.write_text(json.dumps(payload))
        again = Autotuner(cache_path=path)
        assert again.cache_state() == "fresh"
        th = again.thresholds()
        assert th.serial_cutover == 12345
        assert th.process_cutover == NEVER  # inert default, never loaded

    def test_previous_policy_fingerprint_is_stale(self, tmp_path):
        """A cache calibrated by the rank-placement kernel and the
        first-crossing ladder carries a fingerprint without ``policy``
        (or with an older one); it must recalibrate, not be reused."""
        path = tmp_path / "tune.json"
        self._seeded_cache(path)
        payload = json.loads(path.read_text())
        del payload["fingerprint"]["policy"]
        path.write_text(json.dumps(payload))
        assert Autotuner(cache_path=path).cache_state() == "stale"
        payload["fingerprint"]["policy"] = 1
        path.write_text(json.dumps(payload))
        assert Autotuner(cache_path=path).cache_state() == "stale"


def _model_suite(overhead_s: float, ns_per_elem: float, p: int):
    """The probe rows a host with fork/join cost ``overhead_s`` and a
    serial kernel of ``ns_per_elem`` would produce at 2^12 and 2^18."""
    from repro.execution.tuning import ProbeSuite

    rows = []
    for n in (1 << 12, 1 << 18):
        t_serial = ns_per_elem * 1e-9 * n
        rows.append((n, t_serial, overhead_s + t_serial / p))
    return ProbeSuite(serial_vs_parallel=tuple(rows), p=p)


class TestPolicyFunctions:
    """The pure policy layer (repro.execution.tuning) in isolation."""

    def test_derive_thresholds_from_synthetic_suite(self):
        from repro.execution.tuning import derive_thresholds

        th = derive_thresholds(_model_suite(100e-6, 2.0, 2))
        # O + c*n/2 <= 0.95*c*n  <=>  n >= 100us / (2ns * 0.45) = 111,112
        assert th.serial_cutover == 1 << 17
        # the unmeasured thresholds keep their inert defaults
        assert (th.process_cutover, th.tiny_kernel_cutover) == (
            Thresholds().process_cutover, Thresholds().tiny_kernel_cutover)
        assert th.calibrated and th.source == "probe"

    def test_cutover_is_the_smallest_power_of_two_meeting_the_margin(self):
        from repro.execution.tuning import (
            SERIAL_MARGIN,
            derive_thresholds,
        )

        for overhead, ns, p in ((150e-6, 3.0, 2), (500e-6, 3.4, 2),
                                (40e-6, 1.0, 4), (2e-6, 5.0, 3)):
            cut = derive_thresholds(_model_suite(overhead, ns, p)).serial_cutover
            c = ns * 1e-9
            assert cut & (cut - 1) == 0
            assert overhead + c * cut / p <= SERIAL_MARGIN * c * cut
            half = cut // 2
            assert half < 1 << 12 or (
                overhead + c * half / p > SERIAL_MARGIN * c * half)

    def test_cutover_agrees_with_both_probes(self):
        """The parallel time measured at the large probe counts: a loss
        there puts the cutover above it, a win at or below it."""
        from repro.execution.tuning import ProbeSuite, derive_thresholds

        # fork/join 100us, then 2x scaling: parallel wins at 2^18
        wins = _model_suite(100e-6, 3.0, 2)
        # same small probe, but 0.9x at 2^18 (an idle worker CPU that
        # is slow to wake): the loss is priced as fixed cost
        t_ser = 3e-9 * (1 << 18)
        loses = ProbeSuite(serial_vs_parallel=(
            wins.serial_vs_parallel[0], (1 << 18, t_ser, t_ser / 0.9)), p=2)
        assert derive_thresholds(wins).serial_cutover <= 1 << 18
        # O = 0.874 ms - 0.393 ms = 0.48 ms; / (0.45 * 3 ns) = 356,000
        assert derive_thresholds(loses).serial_cutover == 1 << 19

    def test_more_workers_lower_the_cutover(self):
        from repro.execution.tuning import derive_thresholds

        two = derive_thresholds(_model_suite(200e-6, 3.0, 2)).serial_cutover
        four = derive_thresholds(_model_suite(200e-6, 3.0, 4)).serial_cutover
        assert four < two

    def test_single_worker_never_goes_parallel(self):
        from repro.execution.tuning import ProbeSuite, derive_thresholds

        assert derive_thresholds(_model_suite(1e-6, 5.0, 1)).serial_cutover == NEVER
        # no probe rows at all (a 1-CPU host skips the probe)
        assert derive_thresholds(ProbeSuite()).serial_cutover == NEVER

    def test_margin_not_met_at_any_probed_size_still_gives_a_cutover(self):
        """Parallel lost at both probed sizes, but the model crosses at
        a larger N: the cutover is that N, not NEVER."""
        from repro.execution.tuning import derive_thresholds

        suite = _model_suite(5e-3, 2.0, 2)
        assert all(t_par > t_ser for _, t_ser, t_par in suite.serial_vs_parallel)
        # 5 ms / (2 ns * 0.45) = 5.56e6 elements -> 2^23
        assert derive_thresholds(suite).serial_cutover == 1 << 23

    def test_degenerate_timings(self):
        from repro.execution.tuning import ProbeSuite, derive_thresholds

        # a serial time of zero cannot price an element: never parallel
        zero = ProbeSuite(serial_vs_parallel=((4096, 0.0, 1e-4),
                                              (1 << 18, 0.0, 1e-4)), p=2)
        assert derive_thresholds(zero).serial_cutover == NEVER
        # no overhead, or a negative one from timer noise: the smallest
        # probed size, below which the model was not fitted
        for overhead in (0.0, -20e-6):
            free = _model_suite(overhead, 3.0, 2)
            assert derive_thresholds(free).serial_cutover == 1 << 12

    def test_derive_thresholds_margins(self):
        from repro.execution.tuning import derive_thresholds

        # Without the 0.95 hysteresis the model would cross at
        # 60us / (2ns * 0.5) = 60,000 -> 2^16; with it, 66,667 -> 2^17.
        th = derive_thresholds(_model_suite(60e-6, 2.0, 2))
        assert th.serial_cutover == 1 << 17

    def test_tuning_env_collects_only_repro_vars(self):
        from repro.execution.tuning import tuning_env

        env = tuning_env({"REPRO_B": "2", "PATH": "/bin", "REPRO_A": "1"})
        assert env == (("REPRO_A", "1"), ("REPRO_B", "2"))


def test_garbage_bytes_cache_is_a_counted_miss(tmp_path):
    """A corrupted cache (raw garbage bytes, not even UTF-8 JSON) must
    load as a miss, bump ``corrupt_loads``, and — when a registry is
    bound — the ``autotune.cache_corrupt`` counter.  Never a crash."""
    from repro.obs import MetricsRegistry

    path = tmp_path / "tune.json"
    path.write_bytes(b"\x00\xff\xfegarbage{{{")
    tuner = Autotuner(cache_path=path)
    registry = MetricsRegistry()
    tuner.metrics = registry

    assert tuner._load() is None
    assert tuner.corrupt_loads == 1
    assert tuner.cache_state() == "corrupt"
    assert registry.snapshot()["autotune.cache_corrupt"] == 1

    # seeding writes through the atomic path and repairs the file
    tuner.seed(serial_cutover=1234)
    tuner._store(tuner.thresholds())
    again = Autotuner(cache_path=path)
    assert again.cache_state() == "fresh"
    assert again.thresholds().serial_cutover == 1234


def test_corrupt_counter_without_registry_is_safe(tmp_path):
    path = tmp_path / "tune.json"
    path.write_text("{truncated")
    tuner = Autotuner(cache_path=path)  # no metrics bound
    assert tuner._load() is None
    assert tuner.corrupt_loads == 1
