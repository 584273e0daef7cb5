"""Deterministic fault injection for backend task batches.

Chaos engineering for Algorithm 1: :class:`FaultyBackend` wraps any
backend and, driven by a seeded :class:`FaultInjector`, perturbs
individual tasks with

* ``error`` — the task raises :class:`InjectedFault` *instead of
  running* (transient by default: the next attempt runs clean);
* ``delay`` — the task sleeps briefly before running (a straggler, the
  trigger for speculative re-execution);
* ``hang``  — the task sleeps far past any reasonable deadline and then
  raises without ever running (exercises timeout abandonment, and
  self-expires even when no deadline is configured);
* ``death`` — when the executing backend is a process pool, the worker
  SIGKILLs itself before running the task (exercises broken-pool
  detection); on in-process backends it degrades to raising
  :class:`SimulatedWorkerDeath`.

Injected faults fire *before* the task body, so a task never
half-executes: recovery re-runs it exactly once.  Decisions are pure
functions of ``(seed, task_key, attempt)`` — two runs with the same
seed perturb the same tasks the same way — where ``task_key`` is the
order of first appearance of the task callable and ``attempt`` counts
its dispatches, so a retry of a transiently-failed task sees a clean
second attempt.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..backends.base import Backend, tasks_must_pickle

__all__ = [
    "InjectedFault",
    "SimulatedWorkerDeath",
    "FaultDecision",
    "FaultInjector",
    "FaultyBackend",
]

#: Fault kinds, in decision-priority order.
FAULT_KINDS = ("death", "hang", "error", "delay")


class InjectedFault(RuntimeError):
    """Raised by a deterministically injected task fault."""


class SimulatedWorkerDeath(InjectedFault):
    """Stand-in for a worker kill on backends without killable workers."""


@dataclass(frozen=True)
class FaultDecision:
    """What to do to one dispatch of one task."""

    kind: str  # "none" | "error" | "delay" | "hang" | "death"
    sleep_s: float = 0.0


_NO_FAULT = FaultDecision("none")


def _apply_fault(
    decision: FaultDecision, in_process: bool, task: Callable[[], Any]
) -> Any:
    """Task wrapper that realizes a fault decision (runs on the worker)."""
    if decision.kind == "delay":
        time.sleep(decision.sleep_s)
        return task()
    if decision.kind == "error":
        raise InjectedFault("injected task error")
    if decision.kind == "hang":
        # Never runs the task: sleeps past any sane deadline, then fails
        # on its own so recovery works even without a timeout policy.
        time.sleep(decision.sleep_s)
        raise InjectedFault(
            f"injected hang expired after {decision.sleep_s:.3g}s"
        )
    if decision.kind == "death":
        # ``in_process`` says the batch may run on a process pool; only
        # a pool worker (never the parent, e.g. on a chain's thread
        # level) is killed for real.
        if in_process and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedWorkerDeath("injected worker death")
    return task()


class FaultInjector:
    """Seeded source of per-dispatch fault decisions.

    ``*_rate`` parameters give independent-per-dispatch probabilities
    (evaluated in the priority order death > hang > error > delay);
    ``scripted`` pins exact outcomes for ``(task_key, attempt)`` pairs
    and takes precedence.  ``faulty_attempts`` bounds how many leading
    attempts of a task may be rate-faulted (1 = transient faults only;
    ``None`` = every attempt is at risk, i.e. potentially permanent).
    ``always_first`` guarantees the very first dispatch after (re)arming
    is faulted — the chaos tier uses it so every audited implementation
    demonstrably exercises recovery.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        error_rate: float = 0.0,
        delay_rate: float = 0.0,
        hang_rate: float = 0.0,
        death_rate: float = 0.0,
        delay_s: float = 0.02,
        hang_s: float = 4.0,
        faulty_attempts: int | None = 1,
        always_first: str | None = None,
        scripted: dict[tuple[int, int], str] | None = None,
        armed: bool = True,
    ) -> None:
        self.seed = seed
        self.rates = {
            "death": death_rate,
            "hang": hang_rate,
            "error": error_rate,
            "delay": delay_rate,
        }
        self.delay_s = delay_s
        self.hang_s = hang_s
        self.faulty_attempts = faulty_attempts
        self.always_first = always_first
        self.scripted = dict(scripted) if scripted else {}
        self.armed = armed
        self._lock = threading.Lock()
        self._injected: dict[str, int] = {k: 0 for k in FAULT_KINDS}

    def _decision(self, kind: str) -> FaultDecision:
        if kind == "delay":
            return FaultDecision("delay", sleep_s=self.delay_s)
        if kind == "hang":
            return FaultDecision("hang", sleep_s=self.hang_s)
        return FaultDecision(kind)

    def decide(self, task_key: int, attempt: int) -> FaultDecision:
        """Deterministic decision for dispatch ``attempt`` of ``task_key``."""
        if not self.armed:
            return _NO_FAULT
        scripted = self.scripted.get((task_key, attempt))
        if scripted is not None:
            return self._decision(scripted)
        if self.always_first and task_key == 0 and attempt == 0:
            return self._decision(self.always_first)
        if self.faulty_attempts is not None and attempt >= self.faulty_attempts:
            return _NO_FAULT
        r = random.Random(f"{self.seed}:{task_key}:{attempt}").random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += self.rates[kind]
            if r < cumulative:
                return self._decision(kind)
        return _NO_FAULT

    def note(self, kind: str) -> None:
        with self._lock:
            self._injected[kind] = self._injected.get(kind, 0) + 1

    @property
    def injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._injected)

    def rearm(self, seed: int | None = None) -> None:
        """Re-enable injection with fresh counters (and optionally seed)."""
        with self._lock:
            if seed is not None:
                self.seed = seed
            self._injected = {k: 0 for k in FAULT_KINDS}
            self.armed = True

    def disarm(self) -> None:
        self.armed = False


class FaultyBackend(Backend):
    """Backend wrapper that perturbs tasks per a :class:`FaultInjector`.

    Task identity is tracked by callable object: the first time a
    callable is dispatched it is assigned the next ``task_key`` and each
    further dispatch of the *same object* increments its ``attempt`` —
    which is exactly how :class:`~repro.resilience.ResilientBackend`
    re-dispatches retries, so transient faults clear on retry.  (The
    callables are pinned for the wrapper's lifetime so ``id`` reuse
    cannot conflate two tasks; :meth:`reset` drops the pins and restarts
    the key sequence.)
    """

    name = "faulty"

    def __init__(self, inner: Backend, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self._lock = threading.Lock()
        self._keys: dict[int, int] = {}
        self._attempts: dict[int, int] = {}
        self._pins: list[Callable[[], Any]] = []

    def reset(self) -> None:
        """Forget task identities (restart ``task_key`` numbering)."""
        with self._lock:
            self._keys.clear()
            self._attempts.clear()
            self._pins.clear()

    def _next_decision(self, task: Callable[[], Any]) -> FaultDecision:
        with self._lock:
            tid = id(task)
            key = self._keys.get(tid)
            if key is None:
                key = len(self._pins)
                self._keys[tid] = key
                self._pins.append(task)
            attempt = self._attempts.get(tid, 0)
            self._attempts[tid] = attempt + 1
        return self.injector.decide(key, attempt)

    def start_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[Future]:
        # Death faults only truly kill workers on process pools; elsewhere
        # they degrade to an in-process SimulatedWorkerDeath exception.
        in_process = tasks_must_pickle(self.inner)
        wrapped: list[Callable[[], Any]] = []
        for task in tasks:
            decision = self._next_decision(task)
            if decision.kind == "none":
                wrapped.append(task)
            else:
                self.injector.note(decision.kind)
                wrapped.append(
                    functools.partial(_apply_fault, decision, in_process, task)
                )
        return self.inner.start_tasks(wrapped)

    def close(self) -> None:
        self.inner.close()
