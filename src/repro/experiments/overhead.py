"""REM6PCT — the Section VI remark: single-thread overhead ≈ 6%.

"The single-thread execution time of our algorithm was some 6% longer
than a truly sequential merge algorithm.  This is due in part to a few
extra instructions, and possibly also to overhead of OpenMP."

Reproduced two ways:

* **wall clock** — run the production vectorized kernel raw vs through
  the full Algorithm 1 machinery at ``p=1`` (partition + dispatch +
  barrier); report the relative overhead.  This is the direct analogue
  of the paper's measurement and is host-independent in *sign* (the
  framework can only add work).
* **counted** — PRAM cycles of the ``p=1`` merge-path program vs the
  plain sequential program.  At ``p=1`` the partition degenerates (the
  first diagonal is 0, the last is N), so counted overhead is ~0% —
  which localizes the paper's 6% to the runtime framework (OpenMP /
  dispatch), not the algorithm, a small sharpening of the remark.
"""

from __future__ import annotations

import time

from ..backends.serial import SerialBackend
from ..core.parallel_merge import parallel_merge
from ..core.sequential import merge_vectorized
from ..pram.merge_programs import counted_parallel_merge, run_sequential_merge_pram
from ..types import ExperimentResult
from ..workloads.generators import sorted_uniform_ints

__all__ = ["run"]

PAPER_OVERHEAD_PCT = 6.0


def run(
    *,
    elements: int = 1 << 21,
    counted_elements: int = 1 << 13,
    reps: int = 9,
    seed: int = 11,
) -> ExperimentResult:
    """Measure single-thread Merge Path overhead vs raw sequential merge."""
    a = sorted_uniform_ints(elements, seed)
    b = sorted_uniform_ints(elements, seed + 1)

    def raw() -> None:
        merge_vectorized(a, b, check=False)

    backend = SerialBackend()

    def framed() -> None:
        parallel_merge(a, b, 1, backend=backend, check=False)

    # Interleave the two variants so host drift (frequency scaling,
    # neighbours on a shared box) hits both equally.
    raw_times: list[float] = []
    framed_times: list[float] = []
    raw()  # warm-up: page-fault the inputs once, outside timing
    framed()
    for _ in range(max(1, reps)):
        raw_times.append(_timed_once(raw))
        framed_times.append(_timed_once(framed))
    t_raw = _median(raw_times)
    t_framed = _median(framed_times)
    # Judge each framed call against the raw call just before it, so a
    # host slowdown longer than one pair cancels out of the overhead.
    wall_pct = 100.0 * (
        _median([f / r for r, f in zip(raw_times, framed_times)]) - 1.0
    )

    sa = sorted_uniform_ints(counted_elements, seed + 2)
    sb = sorted_uniform_ints(counted_elements, seed + 3)
    _, seq_metrics = run_sequential_merge_pram(sa, sb)
    framed_cycles = counted_parallel_merge(sa, sb, 1).time
    counted_pct = 100.0 * (framed_cycles - seq_metrics.time) / seq_metrics.time

    result = ExperimentResult(
        exp_id="REM6PCT",
        title="Single-thread Merge Path overhead vs sequential merge "
        "(paper Section VI remark: ~6%)",
        columns=["measure", "sequential", "merge_path_p1", "overhead_pct"],
    )
    result.add_row(
        measure=f"wall clock (s, {elements} elems/array, median of {reps})",
        sequential=round(t_raw, 6),
        merge_path_p1=round(t_framed, 6),
        overhead_pct=round(wall_pct, 2),
    )
    result.add_row(
        measure=f"PRAM cycles ({counted_elements} elems/array)",
        sequential=seq_metrics.time,
        merge_path_p1=framed_cycles,
        overhead_pct=round(counted_pct, 2),
    )
    result.notes.append(
        f"paper reports ~{PAPER_OVERHEAD_PCT}% wall-clock overhead "
        "(extra instructions + OpenMP); counted overhead isolates the "
        "algorithmic part (expected ~0 at p=1)"
    )
    return result


def _timed_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median(times: list[float]) -> float:
    """Median (robust to scheduler noise on shared hosts)."""
    ordered = sorted(times)
    return ordered[len(ordered) // 2]
