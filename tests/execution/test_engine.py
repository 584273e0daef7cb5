"""Batched round engine: one dispatch per round, correct merges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.merge_sort import merge_sort_rounds, parallel_merge_sort
from repro.core.parallel_merge import parallel_merge
from repro.errors import InputError
from repro.execution.engine import run_chunk_sorts, run_merge_round
from repro.obs import MetricsRegistry, Tracer

from ..conftest import reference_merge


def _runs(count: int, size: int, seed: int = 5) -> list[np.ndarray]:
    g = np.random.default_rng(seed)
    return [np.sort(g.integers(0, 10**6, size)) for _ in range(count)]


@pytest.mark.parametrize("backend_cls", [SerialBackend, ThreadBackend])
@pytest.mark.parametrize("nruns", [2, 4, 6])
def test_round_merges_every_pair_correctly(backend_cls, nruns):
    runs = _runs(nruns, 300)
    be = backend_cls(max_workers=4)
    try:
        merged = run_merge_round(runs, 3, backend=be)
    finally:
        be.close()
    assert len(merged) == nruns // 2
    for i, out in enumerate(merged):
        assert np.array_equal(out, reference_merge(runs[2 * i], runs[2 * i + 1]))


def test_whole_round_is_exactly_one_dispatch():
    runs = _runs(6, 200)
    be = ThreadBackend(max_workers=4)
    try:
        before = be.dispatches
        run_merge_round(runs, 4, backend=be)
        assert be.dispatches - before == 1  # 3 pairs, 12 segments, 1 barrier
    finally:
        be.close()


def test_odd_tail_run_is_carried_not_dispatched():
    runs = _runs(5, 128)
    be = SerialBackend()
    before = be.dispatches
    merged = run_merge_round(runs, 2, backend=be)
    assert be.dispatches - before == 1
    assert len(merged) == 3
    # The tail rides along unmerged and by identity (no copy).
    assert merged[-1] is runs[-1]


def test_single_run_passes_through_with_zero_dispatches():
    runs = _runs(1, 64)
    be = SerialBackend()
    merged = run_merge_round(runs, 2, backend=be)
    assert be.dispatches == 0
    assert merged[0] is runs[0]


def test_round_accumulates_stats():
    runs = _runs(4, 256)
    reg = MetricsRegistry()
    be = SerialBackend()
    run_merge_round(runs, 2, backend=be, metrics=reg)
    # every element of every pair moved once
    assert reg.value("merge.moves") == 4 * 256


def test_traced_round_attaches_worker_slots():
    runs = _runs(4, 256)
    tracer = Tracer()
    be = ThreadBackend(max_workers=4)
    be.tracer = tracer  # backend emits the exec.batch span on its own tracer
    try:
        run_merge_round(runs, 3, backend=be, trace=tracer, round_index=2)
    finally:
        be.close()
    spans = [s for s in tracer.spans() if s.name == "segment.merge"]
    assert spans, "expected segment.merge spans"
    workers = {s.args["worker"] for s in spans}
    # 2 pairs x 3 slots = 6 distinct logical workers.
    assert workers == set(range(6))
    assert all(s.args["round"] == 2 for s in spans)
    batches = [s for s in tracer.spans() if s.name == "exec.batch"]
    assert len(batches) == 1
    assert batches[0].args["pairs"] == 2


def test_round_publishes_metrics():
    runs = _runs(4, 256)
    reg = MetricsRegistry()
    be = SerialBackend()
    run_merge_round(runs, 2, backend=be, metrics=reg)
    assert reg.value("merge.segments") == 4
    assert reg.value("balance.work_spread") <= 1  # Theorem 14


def test_round_arena_path_on_process_backend():
    """The shared-memory round arena is gone: rounds run in-process, and
    a process pool is refused before the round's one batch is built."""
    be = ProcessBackend(max_workers=2)
    try:
        with pytest.raises(InputError, match="run in-process"):
            run_merge_round(_runs(4, 400), 2, backend=be)
    finally:
        be.close()
    assert be.dispatches == 0


def test_chunk_sorts_are_one_dispatch_and_sorted():
    g = np.random.default_rng(9)
    arr = g.integers(0, 10**6, 1000)
    be = ThreadBackend(max_workers=4)
    try:
        before = be.dispatches
        runs = run_chunk_sorts(arr, 4, backend=be)
        assert be.dispatches - before == 1
    finally:
        be.close()
    assert len(runs) == 4
    rebuilt = np.concatenate(runs)
    assert np.array_equal(np.sort(rebuilt), np.sort(arr))
    for run in runs:
        assert np.all(run[:-1] <= run[1:])


def test_chunk_sorts_shared_memory_path_on_processes():
    """Round 0 no longer stages chunks in shared memory for a process
    pool: the call is refused before any chunk is sorted."""
    g = np.random.default_rng(10)
    arr = g.integers(0, 10**6, 1200)
    be = ProcessBackend(max_workers=2)
    try:
        with pytest.raises(InputError, match="run in-process"):
            run_chunk_sorts(arr, 3, backend=be)
    finally:
        be.close()
    assert be.dispatches == 0


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_sort_dispatch_count_matches_schedule(p):
    """dispatches_per_call == 1 (round 0) + number of merge rounds."""
    g = np.random.default_rng(11)
    x = g.integers(0, 10**6, 4096)
    reg = MetricsRegistry()
    be = ThreadBackend(max_workers=p)
    try:
        out = parallel_merge_sort(x, p, backend=be, metrics=reg)
    finally:
        be.close()
    assert np.array_equal(out, np.sort(x))
    expected = 1 + len(merge_sort_rounds(len(x), p))
    assert reg.value("exec.dispatches_per_call") == expected


def test_round_info_schedule_predicts_one_dispatch_per_round():
    for info in merge_sort_rounds(10_000, 8):
        assert info.dispatches == 1


_MERGE_COUNTS = ("merge.moves", "merge.comparisons", "merge.search_probes",
                 "merge.segments", "exec.dispatches_per_call")


@pytest.mark.parametrize("op", ["parallel_merge", "parallel_merge_sort"])
def test_merge_counts_are_the_same_on_every_backend(op):
    """The counts come from the plan, so every backend counts the
    same."""
    g = np.random.default_rng(11)
    a = np.sort(g.integers(0, 10**6, 100_000))
    b = np.sort(g.integers(0, 10**6, 100_000))
    x = g.integers(0, 10**6, 50_000)
    counts = {}
    for be in ("serial", "threads"):
        reg = MetricsRegistry()
        if op == "parallel_merge":
            parallel_merge(a, b, 2, backend=be, metrics=reg)
        else:
            parallel_merge_sort(x, 2, backend=be, metrics=reg)
        counts[be] = {name: reg.value(name) for name in _MERGE_COUNTS}
    assert counts["serial"]["merge.moves"] > 0
    assert counts["threads"] == counts["serial"]
    if op == "parallel_merge":
        assert counts["serial"]["merge.moves"] == 200_000
        assert counts["serial"]["merge.comparisons"] == 199_998
