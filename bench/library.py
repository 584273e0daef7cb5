"""The library workloads: ``merge_large``, ``merge_small`` and ``sort``.

Each workload runs in its own process.  Its inputs are int32 arrays made
from the seed; every program output is checked bit for bit against NumPy
outside the timed region.  Calls run one at a time, in interleaved
rounds, so the program's calls and the NumPy reference see the same
machine state.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from common import (P, ROOT, child_env, l2_bytes, median, peak_rss_mb, percentile,
                    pin_autotune, reported, reset_peak_rss, share, trim_heap)
from layers import (SERVE_METRICS, SORT_METRICS, SPM_METRICS, LayerProbe, Window,
                    account)

BENCH = Path(__file__).resolve().parent
#: Set-up samples per run: a cold start is mostly imports, whose time
#: swings by a third from one start to the next on a busy 2-CPU host.
COLD_STARTS = 9
#: Calls whose peak resident set is measured, at least (one per input).
PEAK_CALLS = 3
_I32 = np.iinfo(np.int32)


def _uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(_I32.min, _I32.max, n, dtype=np.int32, endpoint=True)


def _sorted_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(_uniform(rng, n))


def _equal(out: np.ndarray, ref: np.ndarray) -> bool:
    return out.dtype == ref.dtype and np.array_equal(out, ref)


@dataclass(slots=True)
class Op:
    """One timed operation.  ``check`` is ``None`` for the NumPy reference,
    whose output is the yardstick rather than something to verify."""

    name: str
    call: Callable[[int], object]
    check: Callable[[int, object], bool] | None = None


@dataclass(slots=True)
class Tally:
    """Program calls made and how many of them failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, op: str, ok: bool, why: str = "wrong output") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op}: {why}")


@dataclass(slots=True)
class Call:
    index: int
    seconds: float
    seen: Window | None = None


def _call(op: Op, i: int, tally: Tally) -> tuple[bool, float]:
    """Call ``op`` on input ``i`` and check its output outside the timing;
    returns whether it returned and the seconds it took."""
    t0 = time.perf_counter()
    try:
        out = op.call(i)
    except Exception as exc:  # noqa: BLE001 - counted, run continues
        tally.record(op.name, False, f"{type(exc).__name__}: {exc}")
        return False, 0.0
    dt = time.perf_counter() - t0
    if op.check is not None:
        tally.record(op.name, op.check(i, out))
    return True, dt


def timed_rounds(
    ops: list[Op],
    n_inputs: int,
    seconds: float,
    tally: Tally,
    probe: LayerProbe | None = None,
) -> dict[str, list[Call]]:
    """Run rounds until ``seconds`` have passed.  Round ``r`` calls every op
    once, in order, on input ``r mod n_inputs``; at least one round runs."""
    calls: dict[str, list[Call]] = {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        i = r % n_inputs
        for op in ops:
            mark = probe.mark() if probe is not None else None
            returned, dt = _call(op, i, tally)
            if returned:
                calls[op.name].append(
                    Call(i, dt, probe.since(mark) if probe is not None else None))
        r += 1
    return calls


def peak_rss_calls(op: Op, n_inputs: int, tally: Tally) -> list[float]:
    """Peak resident set (MiB) of this process during one call of ``op`` on
    each input, and at least ``PEAK_CALLS`` calls, each started from a
    trimmed heap.  Without the trim a call reuses pages the allocator kept
    from an earlier call on some runs and not on others, and the peak of a
    2^23 sort jumps by a whole array between runs.  The first call of a
    run can still peak up to 12% higher; the median of three cannot."""
    peaks = []
    for k in range(max(PEAK_CALLS, n_inputs)):
        trim_heap()
        reset_peak_rss()
        if _call(op, k % n_inputs, tally)[0]:
            peaks.append(peak_rss_mb())
    return peaks


def _seconds(calls: list[Call]) -> list[float]:
    return [c.seconds for c in calls]


def _seen(calls: list[Call]) -> Window:
    """Everything the probe saw during ``calls``."""
    seen = Window()
    for c in calls:
        seen.add(c.seen)
    return seen


def _paired_ratio(num: list[Call], den: list[Call]) -> float:
    """Median over rounds of ``num`` time / ``den`` time (same round)."""
    return median([n.seconds / d.seconds for n, d in zip(num, den)])


def cold_start_seconds(name: str, workdir: Path) -> list[float]:
    """Set-up samples, each a fresh process with an empty autotune cache,
    timed from spawn until the first call of every op has returned."""
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--coldstart", name],
            stdout=subprocess.PIPE, text=True, env=child_env(workdir), cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"cold start of {name} failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class LibraryWorkload:
    """Shared runner; subclasses define inputs and operations.

    ``ops`` keys: ``primary`` (the p=2 operation the end-to-end metrics
    describe), ``numpy`` (its NumPy reference), ``p1`` and ``kernel`` (the
    p=1 entry point and the bare routine it wraps) and optionally
    ``engine`` (a second engine whose layer is reported per layer).
    """

    name = ""
    n_inputs = 1
    #: Per-layer metrics this workload does not measure; reported as 0.
    not_measured: frozenset[str] = frozenset()

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: dict[str, Op] = {}

    def elements(self, i: int) -> int:
        raise NotImplementedError

    def metrics_call(self, i: int, registry) -> object:
        """The primary op on input ``i`` with ``metrics=registry``."""
        raise NotImplementedError

    # -- the two passes ----------------------------------------------------

    def end_to_end(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        ops = self.ops
        start = time.perf_counter()
        setup = cold_start_seconds(self.name, self.workdir)
        autotune = pin_autotune()
        peaks = peak_rss_calls(ops["primary"], self.n_inputs, tally)
        # Set-up samples and peak calls are part of the run's measuring
        # time; the rounds get the rest of it, and at least half.
        load_s = max(seconds - (time.perf_counter() - start), seconds / 2)
        calls = timed_rounds([ops["primary"], ops["numpy"]], self.n_inputs, load_s, tally)
        prim = calls[ops["primary"].name]
        lat = _seconds(prim)
        metrics = {
            "setup_s": median(setup),
            "peak_rss_mb": median(peaks),
            "speedup_vs_numpy": _paired_ratio(calls[ops["numpy"].name], prim),
        }
        n = len(prim)
        detail = {
            "samples": {"setup_s": len(setup), "peak_rss_mb": len(peaks),
                        "speedup_vs_numpy": n},
            "reported": {
                "latency_p50_ms": reported(median(lat) * 1e3, "ms", n),
                "latency_p99_ms": reported(percentile(lat, 0.99) * 1e3, "ms", n),
                "throughput_melem_s": reported(median(
                    [self.elements(c.index) / c.seconds for c in prim]) / 1e6, "Melem/s", n),
            },
            "autotune": autotune,
        }
        return metrics, detail

    def per_layer(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        ops = self.ops
        autotune = pin_autotune()
        # The untraced and traced passes run the same rounds, so their
        # difference is the probe's cost; the p=1 pair runs on its own.
        layered = [ops[k] for k in ("primary", "engine") if k in ops]
        untraced = timed_rounds(layered, self.n_inputs, seconds / 3, tally)
        with LayerProbe(P) as probe:
            traced = timed_rounds(layered, self.n_inputs, seconds / 3, tally, probe)
        single = timed_rounds([ops["p1"], ops["kernel"]], self.n_inputs, seconds / 3, tally)

        prim = traced[ops["primary"].name]
        metrics = account(len(prim), sum(_seconds(prim)),
                          sum(self.elements(c.index) for c in prim), _seen(prim))

        from repro.obs import MetricsRegistry

        probes, dispatches = [], []
        for i in range(self.n_inputs):
            registry = MetricsRegistry()
            out = self.metrics_call(i, registry)
            tally.record(f"{ops['primary'].name} (metrics=)", ops["primary"].check(i, out))
            snap = registry.snapshot()
            probes.append(snap.get("merge.search_probes", 0))
            dispatches.append(snap["exec.dispatches_per_call"])
        metrics["partition.probes"] = sum(probes) / len(probes)
        checks = {"dispatches_per_call": sum(dispatches) / len(dispatches)}
        if abs(metrics["dispatch.batches_per_call"] - checks["dispatches_per_call"]) > 1e-9:
            tally.record("dispatch accounting", False,
                         f"probe saw {metrics['dispatch.batches_per_call']} batches "
                         f"per call, exec.dispatches_per_call is "
                         f"{checks['dispatches_per_call']}")

        untraced_prim = untraced[ops["primary"].name]
        metrics["trace.overhead_pct"] = (
            median(_seconds(prim)) / median(_seconds(untraced_prim)) - 1.0) * 100.0
        metrics["framework.p1_overhead_ratio"] = _paired_ratio(
            single[ops["p1"].name], single[ops["kernel"].name])
        metrics.update(self.engine_layers(untraced, traced))
        metrics["loadgen.late_p99_ms"] = 0.0  # closed loop: nothing is sent late
        samples = {f"{label}.{k}": len(v)
                   for label, calls in (("untraced", untraced), ("traced", traced),
                                        ("p1", single))
                   for k, v in calls.items()}
        return metrics, {"samples": samples, "checks": checks, "autotune": autotune}

    def engine_layers(self, untraced, traced) -> dict[str, float]:
        return {}

    def coldstart(self) -> None:
        """Set-up a user pays: the first call of every operation."""
        for op in self.ops.values():
            op.call(0)


def _merge_ops(pairs: list[tuple[np.ndarray, np.ndarray]],
               refs: list[np.ndarray]) -> dict[str, Op]:
    from repro.core.parallel_merge import parallel_merge
    from repro.core.sequential import merge_into

    def kernel(i: int) -> np.ndarray:
        a, b = pairs[i]
        out = np.empty(len(a) + len(b), dtype=np.result_type(a, b))
        merge_into(out, a, b)
        return out

    def same(i: int, out) -> bool:
        return _equal(out, refs[i])

    return {
        "primary": Op("parallel_merge", lambda i: parallel_merge(*pairs[i], P), same),
        "p1": Op("parallel_merge.p1.serial",
                 lambda i: parallel_merge(*pairs[i], 1, backend="serial"), same),
        "kernel": Op("merge_into", kernel, same),
        "numpy": Op("numpy.sort(concatenate)",
                    lambda i: np.sort(np.concatenate(pairs[i]), kind="stable")),
    }


class MergeLarge(LibraryWorkload):
    """Two sorted 2^24-element arrays: 256 MiB of inputs and output against
    the host's last-level cache.  The kernel does nearly all the work."""

    name = "merge_large"
    not_measured = SERVE_METRICS | SORT_METRICS

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        n = 1 << (12 if quick else 24)
        self.a, self.b = _sorted_uniform(self.rng, n), _sorted_uniform(self.rng, n)
        self.ref = np.sort(np.concatenate([self.a, self.b]), kind="stable")
        self.ops = _merge_ops([(self.a, self.b)], [self.ref])
        from repro.core.segmented_merge import segmented_parallel_merge

        cache_elements = l2_bytes() // self.a.itemsize
        self.ops["engine"] = Op(
            "segmented_parallel_merge",
            lambda i: segmented_parallel_merge(self.a, self.b, P,
                                               cache_elements=cache_elements),
            lambda i, out: _equal(out, self.ref))

    def elements(self, i: int) -> int:
        return len(self.ref)

    def metrics_call(self, i: int, registry) -> object:
        from repro.core.parallel_merge import parallel_merge

        return parallel_merge(self.a, self.b, P, metrics=registry)

    def engine_layers(self, untraced, traced) -> dict[str, float]:
        name = self.ops["engine"].name
        spm = traced[name]
        blocks = [b for b in _seen(spm).batches if b.label == "spm.block"]
        barrier = sum(b.wall_s - b.critical_s for b in blocks)
        return {
            "spm.melem_s": len(self.ref) / median(_seconds(untraced[name])) / 1e6,
            "spm.blocks": len(blocks) / len(spm),
            "spm.barrier_us_per_block": share(barrier, len(blocks)) * 1e6,
        }


class MergeSmall(LibraryWorkload):
    """A fixed cycle of 64 sorted pairs, 2^8 to 2^14 elements per side
    (log-uniform): partition and entry-point cost dominate each call."""

    name = "merge_small"
    n_inputs = 64
    not_measured = SERVE_METRICS | SORT_METRICS | SPM_METRICS

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        lo, hi = (4, 8) if quick else (8, 14)
        # Stratified log-uniform sizes: one draw from each of n equal slices
        # of [lo, hi) per side, the slices of the two sides paired by one
        # fixed permutation.  Which sizes pair up sets most of a call's
        # speed-up, so a seed that chose the pairing moved the median ratio
        # by up to 13%; with the pairing fixed, the seed only moves each
        # size within its slice and draws the values.
        n = self.n_inputs
        sizes = [[int(2 ** (lo + (hi - lo) * (k + self.rng.random()) / n)) for k in range(n)]
                 for _ in range(2)]
        sizes[1] = [sizes[1][k] for k in np.random.default_rng(0).permutation(n)]
        self.pairs = [(_sorted_uniform(self.rng, na), _sorted_uniform(self.rng, nb))
                      for na, nb in zip(*sizes)]
        self.refs = [np.sort(np.concatenate(p), kind="stable") for p in self.pairs]
        self.ops = _merge_ops(self.pairs, self.refs)

    def elements(self, i: int) -> int:
        return len(self.refs[i])

    def metrics_call(self, i: int, registry) -> object:
        from repro.core.parallel_merge import parallel_merge

        return parallel_merge(*self.pairs[i], P, metrics=registry)


class Sort(LibraryWorkload):
    """One unsorted 2^23-element array, sorted in RAM by log p merge rounds
    and out of core by block merges over memory-mapped runs."""

    name = "sort"
    not_measured = SERVE_METRICS | SPM_METRICS

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        from repro.core.merge_sort import parallel_merge_sort
        from repro.external.parallel import external_sort_file

        n = 1 << (14 if quick else 23)
        memory = 1 << (10 if quick else 19)
        self.x = _uniform(self.rng, n)
        self.ref = np.sort(self.x, kind="stable")
        self.in_path = str(workdir / "sort-input.npy")
        np.save(self.in_path, self.x)
        self.spill = workdir / "spill"
        self.spill.mkdir(exist_ok=True)
        self.report = None

        def extsort(i: int) -> str:
            final, self.report = external_sort_file(
                self.in_path, memory_elements=memory, directory=str(self.spill),
                workers=P)
            return final.path

        def check_file(i: int, path: str) -> bool:
            try:
                return _equal(np.load(path, mmap_mode="r"), self.ref)
            finally:
                os.unlink(path)

        same = lambda i, out: _equal(out, self.ref)  # noqa: E731
        self.ops = {
            "primary": Op("parallel_merge_sort", lambda i: parallel_merge_sort(self.x, P), same),
            "engine": Op("external_sort_file", extsort, check_file),
            "p1": Op("parallel_merge_sort.p1.serial",
                     lambda i: parallel_merge_sort(self.x, 1, backend="serial"), same),
            "kernel": Op("numpy.sort(mergesort)",
                         lambda i: np.sort(self.x, kind="mergesort"), same),
            "numpy": Op("numpy.sort(stable)", lambda i: np.sort(self.x, kind="stable")),
        }

    def elements(self, i: int) -> int:
        return len(self.x)

    def metrics_call(self, i: int, registry) -> object:
        from repro.core.merge_sort import parallel_merge_sort

        return parallel_merge_sort(self.x, P, metrics=registry)

    def engine_layers(self, untraced, traced) -> dict[str, float]:
        prim = traced[self.ops["primary"].name]
        seen = _seen(prim)
        ext_name = self.ops["engine"].name
        ext = traced[ext_name]
        ext_seen = _seen(ext)
        form = ext_seen.wall("extsort.runs")
        merge = ext_seen.wall("extsort.pass")
        report = self.report
        ms_per_sort = 1e3 / len(prim)
        ms_per_extsort = 1e3 / len(ext)
        return {
            "sort.chunks_ms": seen.wall("sort.chunks") * ms_per_sort,
            "sort.rounds_ms": seen.wall("sort.round") * ms_per_sort,
            "sort.rounds": seen.count("sort.round") / len(prim),
            "extsort.melem_s": len(self.x) / median(_seconds(untraced[ext_name])) / 1e6,
            "extsort.form_ms": form * ms_per_extsort,
            "extsort.merge_ms": merge * ms_per_extsort,
            "extsort.plan_ms": (sum(_seconds(ext)) - form - merge) * ms_per_extsort,
            "extsort.transfer_ratio": report.transfer_ratio or 0.0,
            "extsort.blocks": report.blocks,
            "extsort.passes": report.passes,
        }


WORKLOADS = {w.name: w for w in (MergeLarge, MergeSmall, Sort)}
