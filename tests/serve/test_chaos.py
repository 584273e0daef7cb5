"""Seeded chaos through the live server: workers die, clients don't.

The server's execution chain is injected here: a
:class:`FaultyBackend` (seeded, deterministic) in front of the real
thread pool, inside a :class:`DegradingBackend` whose tail is serial.
Theorem 14 makes the replays safe — merge tasks are idempotent with
disjoint outputs — so whatever the injector kills, every client
response must still match the oracle while the ``resilience.*``
counters prove the recovery path actually ran.
"""

from __future__ import annotations

import warnings

from repro.backends.threads import ThreadBackend
from repro.resilience.degrade import DegradingBackend
from repro.resilience.faults import FaultInjector, FaultyBackend
from repro.resilience.policy import RetryPolicy
from repro.serve import ServeConfig, ServerThread
from repro.workloads.loadgen import LoadSpec, run_load_sync


class TestWorkerDeathMidRequest:
    def test_clients_survive_seeded_worker_deaths(self):
        # One attempt in ~4 dies (transient: the retry succeeds).
        injector = FaultInjector(seed=1729, death_rate=0.25)
        backend = DegradingBackend(
            [FaultyBackend(ThreadBackend(max_workers=4), injector),
             "serial"],
            policy=RetryPolicy(max_retries=4, backoff_base_s=0.001,
                               backoff_cap_s=0.01, speculate=False),
            failure_threshold=1_000_000,  # stay on the faulty level
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(
                ServeConfig(capacity=128, max_batch=16, window_s=0.001),
                backend=backend,
            ) as handle:
                spec = LoadSpec(clients=6, requests_per_client=25, seed=5,
                                small_max=64, large_every=0, topk_every=5)
                report = run_load_sync(handle.host, handle.port, spec)
                snapshot = handle.registry.snapshot()

        # Every response correct despite the carnage...
        assert report.sent == 150
        assert report.incorrect == 0
        assert report.errors == 0
        assert report.ok == report.sent
        # ...and the registry proves the retry path actually fired
        # (in-process simulated deaths classify as retried exceptions).
        assert snapshot["resilience.retries"] > 0
        assert snapshot.get("resilience.batches", 0) > 0

    def test_chain_collapse_degrades_and_still_answers(self):
        # Every attempt on the primary level fails, forever: the chain
        # must strike it out, count the fall, and replay the whole
        # batch on the serial tail — invisibly to the client.
        injector = FaultInjector(seed=7, error_rate=1.0,
                                 faulty_attempts=None)
        backend = DegradingBackend(
            [FaultyBackend(ThreadBackend(max_workers=4), injector),
             "serial"],
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.001,
                               backoff_cap_s=0.01, speculate=False),
            failure_threshold=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(
                ServeConfig(capacity=64, max_batch=8, window_s=0.001),
                backend=backend,
            ) as handle:
                spec = LoadSpec(clients=3, requests_per_client=10,
                                seed=9, small_max=32,
                                large_every=0, topk_every=0)
                report = run_load_sync(handle.host, handle.port, spec)
                snapshot = handle.registry.snapshot()

        assert report.sent == 30
        assert report.incorrect == 0
        assert report.ok == report.sent
        # The degrade path fired, counted once into the server's
        # registry (the chain is bound to it), with no mirror copy.
        assert snapshot["resilience.degradations"] >= 1
        assert not [k for k in snapshot if k.startswith("serve.degrad")]
        # After the strike the serial tail serves everything.
        assert backend.active_backend == "serial"

    def test_faulty_backend_deterministic_across_runs(self):
        # Same seed, same workload → byte-identical fault schedule:
        # the chaos tier replays exactly (the point of seeding).
        def run_once() -> tuple[int, int]:
            injector = FaultInjector(seed=123, death_rate=0.3)
            backend = DegradingBackend(
                [FaultyBackend(ThreadBackend(max_workers=2), injector),
                 "serial"],
                policy=RetryPolicy(max_retries=5, backoff_base_s=0.001,
                                   backoff_cap_s=0.01, speculate=False),
                failure_threshold=1_000_000,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with ServerThread(
                    ServeConfig(capacity=32, max_batch=4, window_s=0.0),
                    backend=backend,
                ) as handle:
                    spec = LoadSpec(clients=1, requests_per_client=12,
                                    seed=3, small_max=16, pipeline=1,
                                    large_every=0, topk_every=0)
                    report = run_load_sync(handle.host, handle.port, spec)
                    retries = int(
                        handle.registry.value("resilience.retries")
                    )
            return report.ok, retries

        ok_a, retries_a = run_once()
        ok_b, retries_b = run_once()
        assert ok_a == ok_b == 12
        assert retries_a == retries_b
        assert retries_a > 0
