"""Algorithm 2 — Segmented Parallel Merge (SPM), the cache-efficient variant.

Section IV.B: instead of giving each of the ``p`` processors one huge
(``N/p``-element) segment whose working set thrashes the shared cache,
the overall merge path is cut into *blocks* of length ``L`` (the paper
recommends ``L = C/3`` so a block's A-window, B-window and output slice
co-reside in a cache of ``C`` elements).  Blocks are processed one after
the other; **within** a block the ``p`` processors split the ``L`` path
steps exactly as in Algorithm 1, via diagonal searches confined to the
``L``-element windows (Theorem 16 guarantees the windows suffice).

The block loop advances data-dependently: a block consumes ``ca``
elements of ``A`` and ``cb = L - ca`` of ``B`` (the "cyclic buffer"
refill amounts in the paper's step 1).  :func:`plan_segments` exposes
the full block/sub-segment plan so the cache experiments can replay the
exact access pattern through the cache simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..backends import Backend
from ..errors import InputError
from ..execution.context import Execution
from ..execution.engine import run_segments
from ..obs.tracer import NULL_SPAN
from ..types import MergeStats, Partition, Segment
from ..validation import as_array, check_mergeable, check_positive
from .merge_path import diagonal_intersection, partition_merge_path
from .sequential import result_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = ["BlockPlan", "plan_segments", "segmented_parallel_merge", "block_length"]


def block_length(cache_elements: int, fraction: int = 3) -> int:
    """Paper's block sizing rule: ``L = C / 3``.

    A block needs room for up to ``L`` elements of A, ``L`` of B and
    ``L`` of output; dividing the cache three ways guarantees
    co-residence.  ``fraction`` is exposed for the ablation bench
    (C/2 risks conflict evictions; C/4 wastes capacity).
    """
    check_positive(cache_elements, "cache_elements")
    check_positive(fraction, "fraction")
    return max(1, cache_elements // fraction)


@dataclass(frozen=True, slots=True)
class BlockPlan:
    """One SPM block: its global path segment and intra-block partition.

    Attributes
    ----------
    block:
        Global coordinates of the block on the full merge path.
    partition:
        Intra-block partition into ``p`` sub-segments, in *window*
        coordinates (relative to ``block.a_start`` / ``block.b_start``).
    """

    block: Segment
    partition: Partition


def plan_segments(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    L: int,
    *,
    check: bool = True,
) -> Iterator[BlockPlan]:
    """Lazily yield the SPM block plan.

    Each iteration performs one diagonal search on an ``L``-bounded
    window to find the block's end point (Theorem 16), then partitions
    the block's path segment among ``p`` processors.  Lazy so the
    executor — and the cache-trace replayer — can interleave planning
    with merging exactly the way Algorithm 2's serial outer loop does.
    """
    check_positive(p, "p")
    check_positive(L, "L")
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)
    n = len(a) + len(b)
    ga = gb = done = 0
    index = 0
    while done < n:
        # Windows: the next (at most) L unconsumed elements of each array.
        wa = a[ga : ga + L]
        wb = b[gb : gb + L]
        lb = min(L, n - done)
        # End of this block: intersection of the window merge path with
        # the window diagonal at distance lb (Theorem 16: no point on it
        # needs elements beyond the windows).
        end = diagonal_intersection(wa, wb, lb)
        block = Segment(
            index=index,
            a_start=ga,
            a_end=ga + end.i,
            b_start=gb,
            b_end=gb + end.j,
            out_start=done,
            out_end=done + lb,
        )
        sub = partition_merge_path(wa[: end.i], wb[: end.j], p, check=False)
        yield BlockPlan(block=block, partition=sub)
        ga += end.i
        gb += end.j
        done += lb
        index += 1


def segmented_parallel_merge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    p: int,
    *,
    cache_elements: int | None = None,
    L: int | None = None,
    backend: Backend | str = "threads",
    check: bool = True,
    stats: MergeStats | None = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Merge with Algorithm 2: serial cache-sized blocks, parallel inside.

    Exactly one of ``cache_elements`` (from which ``L = C/3``) or ``L``
    must be given.  Semantics (output, stability) are identical to
    :func:`repro.core.parallel_merge.parallel_merge`; only the memory
    access schedule differs.

    ``trace`` records one ``spm.block`` span per cache block (with the
    block's refill amounts) plus the usual ``segment.merge`` /
    ``backend.task`` spans inside it; ``metrics`` counts blocks
    (``spm.blocks``), observes each block's A-consumption share
    (histogram ``spm.block_a_share``) and accumulates kernel counts.
    """
    if (cache_elements is None) == (L is None):
        raise InputError("pass exactly one of cache_elements= or L=")
    if L is None:
        assert cache_elements is not None
        L = block_length(cache_elements)
    check_positive(L, "L")
    check_positive(p, "p")
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)

    out = np.empty(len(a) + len(b), dtype=result_dtype(a, b))
    with Execution(backend, p, op="spm", trace=trace, metrics=metrics,
                   stats=stats) as ex:
        for plan in plan_segments(a, b, p, L, check=False):
            block = plan.block
            block_span = (
                trace.span(
                    "spm.block",
                    index=block.index,
                    out_start=block.out_start, out_end=block.out_end,
                    a_consumed=block.a_len, b_consumed=block.b_len,
                )
                if trace is not None
                else NULL_SPAN
            )
            with block_span:  # per-block barrier (step 3 of Algorithm 2)
                run_segments(ex, [(
                    out[block.out_start:block.out_end],
                    a[block.a_start:block.a_end],
                    b[block.b_start:block.b_end],
                    plan.partition,
                )], label="spm.block", meta={"block": block.index})
            if metrics is not None:
                metrics.counter("spm.blocks").inc()
                metrics.histogram("spm.block_a_share").observe(
                    block.a_len / block.length
                )
    return out
