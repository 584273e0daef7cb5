"""Registry of every merge/sort entry point, behind uniform signatures.

Each :class:`Implementation` wraps one public entry point of the
package into a uniform callable per kind:

* ``merge`` — ``fn(a, b, p) -> merged`` for two sorted arrays;
* ``keyed`` — ``fn(a, b, p) -> gather indices`` into ``A ++ B`` (the
  merge path as a permutation; lets the fuzzer check stability at
  *index* resolution, not just value resolution);
* ``kway``  — ``fn(arrays, p) -> merged`` for T sorted arrays;
* ``sort``  — ``fn(x, p) -> sorted``;
* ``setop`` — ``fn(a, b, p) -> result`` with std::set_* multiset
  semantics (checked against an independent ``Counter`` oracle; the
  operation is the entry's name suffix).

``stable=False`` marks implementations that never promised the
A-before-B tie rule (comparator networks); the fuzzer then skips the
signed-zero stability probes.  ``known_unsound=True`` marks the paper's
deliberate counterexample (the naive equal-index split): the runner
asserts such implementations **do** fail — a standing proof that the
oracle has teeth.

Backends that pool workers (threads, processes) are cached per run via
:class:`BackendCache` so the quick tier does not pay pool construction
per case; the runner closes the cache when it finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..backends import Backend, get_backend

__all__ = ["Implementation", "BackendCache", "build_registry"]


@dataclass(frozen=True)
class Implementation:
    """One registered merge/sort entry point.

    ``fn`` follows the uniform signature of ``kind``.  ``max_elements``
    skips cases whose total input size exceeds the implementation's
    practical budget (the lockstep PRAM machine pays thousands of
    Python cycles per element).
    """

    name: str
    layer: str  # core | backend | baseline | gpu | pram | extension
    kind: str  # merge | keyed | kway | sort | setop
    fn: Callable
    stable: bool = True
    known_unsound: bool = False
    max_elements: int | None = None
    tiers: tuple[str, ...] = ("quick", "full")
    #: Backend name to drive through the write-audited race detector
    #: (None: the implementation does not expose the partition +
    #: merge_into structure the tracker instruments).
    race_backend: str | None = None
    #: Whether the implementation validates its input and must reject
    #: every case of :func:`~repro.conformance.workloads.unsorted_cases`
    #: with the ``NotSortedError`` an up-front scan raises.
    rejects_unsorted: bool = False
    #: Whether the implementation routes its tasks through the shared
    #: :class:`BackendCache` — i.e. whether the chaos tier can inject
    #: faults into it by swapping the cache for a fault-wrapped one.
    injectable: bool = False
    notes: str = ""


class BackendCache:
    """Lazily constructed, shared backend instances for one conformance run."""

    def __init__(self, max_workers: int = 4) -> None:
        self._max_workers = max_workers
        self._cache: dict[str, Backend] = {}

    def get(self, name: str) -> Backend:
        if name not in self._cache:
            self._cache[name] = get_backend(name, max_workers=self._max_workers)
        return self._cache[name]

    def close(self) -> None:
        for backend in self._cache.values():
            backend.close()
        self._cache.clear()


def build_registry(
    tier: str = "quick", *, backends: BackendCache | None = None
) -> dict[str, Implementation]:
    """Enumerate every registered implementation for ``tier``.

    A fresh :class:`BackendCache` is created when none is passed; the
    caller owns closing it (``run_conformance`` does).
    """
    cache = backends if backends is not None else BackendCache()

    # Imports live here so `import repro.conformance` stays cheap.
    from ..baselines.akl_santoro import akl_santoro_merge
    from ..baselines.bitonic import bitonic_sort, odd_even_merge
    from ..baselines.deo_sarkar import deo_sarkar_merge
    from ..baselines.heap_kway import heap_kway_merge
    from ..baselines.naive_split import naive_split_merge
    from ..baselines.shiloach_vishkin import sv_merge
    from ..core.cache_sort import cache_efficient_sort
    from ..core.inplace import merge_inplace_parallel
    from ..core.keyed import argmerge, merge_by_key, merge_records
    from ..core.kway import kway_merge
    from ..core.merge_sort import parallel_merge_sort
    from ..core.natural_sort import natural_merge_sort
    from ..core.parallel_merge import parallel_merge
    from ..core.segmented_merge import segmented_parallel_merge
    from ..core.sequential import merge_galloping, merge_two_pointer, merge_vectorized
    from ..core.setops import (
        set_difference,
        set_intersection,
        set_symmetric_difference,
        set_union,
    )
    from ..core.streaming import streaming_merge
    from ..gpu.blocked_merge import blocked_merge
    from ..gpu.model import GPUSpec
    from ..pram.merge_programs import run_parallel_merge_pram

    def _round_merge(a, b, p, backend_name):
        """Drive one batched engine round over the single pair (a, b)."""
        from ..execution.engine import run_merge_round

        a = np.asarray(a)
        b = np.asarray(b)
        if len(a) == 0 and len(b) == 0:
            return np.array([], dtype=np.int64)
        merged = run_merge_round(
            [a, b], max(1, p), backend=cache.get(backend_name)
        )
        return merged[0]

    def _streaming(a, b, p):
        blocks = list(streaming_merge(iter(a), iter(b), L=16))
        if not blocks:
            return np.array([], dtype=np.promote_types(a.dtype, b.dtype)
                            if len(a) or len(b) else np.int64)
        return np.concatenate(blocks)

    def _inplace(a, b, p):
        arr = np.concatenate(
            [np.asarray(a), np.asarray(b)]
        ).astype(np.promote_types(a.dtype, b.dtype) if len(a) or len(b) else np.int64)
        merge_inplace_parallel(arr, len(a), p, backend=cache.get("serial"))
        return arr

    def _pram(a, b, p):
        out, _metrics = run_parallel_merge_pram(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), p
        )
        return out

    def _keyed_by_key(a, b, p):
        n_a = len(a)
        _keys, vals = merge_by_key(
            a,
            b,
            np.arange(n_a, dtype=np.int64),
            np.arange(n_a, n_a + len(b), dtype=np.int64),
            p=p,
            backend=cache.get("threads"),
        )
        return vals

    def _keyed_records(a, b, p):
        dtype = np.dtype([("key", np.float64), ("idx", np.int64)])
        ra = np.empty(len(a), dtype=dtype)
        ra["key"] = a
        ra["idx"] = np.arange(len(a))
        rb = np.empty(len(b), dtype=dtype)
        rb["key"] = b
        rb["idx"] = np.arange(len(a), len(a) + len(b))
        merged = merge_records(ra, rb, "key", p=p, backend=cache.get("serial"))
        return merged["idx"]

    small_gpu = GPUSpec(
        threads_per_block=4, items_per_thread=3, shared_limit_elements=64
    )

    def _blocked_sort(x):
        from ..gpu.blocked_sort import blocked_sort

        return blocked_sort(np.asarray(x), spec=small_gpu, collect_stats=False)[0]

    def _extsort(x, p):
        from ..external import external_sort

        x = np.asarray(x)
        # A deliberately tiny budget so even quick-tier cases form
        # several runs and exercise the planner + block-merge fan-in.
        memory = max(4, min(64, max(1, len(x)) // 4))
        return external_sort(
            x, memory, backend=cache.get("serial"), workers=max(1, p)
        )

    impls = [
        # ---- core sequential kernels --------------------------------
        Implementation(
            "core.kernel.two_pointer", "core", "merge",
            lambda a, b, p: merge_two_pointer(a, b),
        ),
        Implementation(
            "core.kernel.galloping", "core", "merge",
            lambda a, b, p: merge_galloping(a, b),
        ),
        Implementation(
            "core.kernel.vectorized", "core", "merge",
            lambda a, b, p: merge_vectorized(a, b),
        ),
        # ---- Algorithm 1 over execution backends --------------------
        Implementation(
            "backend.parallel_merge.serial", "backend", "merge",
            lambda a, b, p: parallel_merge(a, b, p, backend=cache.get("serial")),
            race_backend="serial", injectable=True, rejects_unsorted=True,
        ),
        Implementation(
            "backend.parallel_merge.threads", "backend", "merge",
            lambda a, b, p: parallel_merge(a, b, p, backend=cache.get("threads")),
            race_backend="threads", injectable=True, rejects_unsorted=True,
        ),
        Implementation(
            "backend.parallel_merge.processes", "backend", "merge",
            lambda a, b, p: parallel_merge(a, b, p, backend=cache.get("processes")),
            tiers=("full",), injectable=True, rejects_unsorted=True,
            notes="shared-memory process pool; full tier only for speed",
        ),
        # ---- batched execution engine (one dispatch per round) ------
        Implementation(
            "exec.round_merge.threads", "backend", "merge",
            lambda a, b, p: _round_merge(a, b, p, "threads"),
            race_backend="threads", injectable=True,
            notes="run_merge_round: all pairs of a sort round as one batch",
        ),
        Implementation(
            "exec.round_merge.processes", "backend", "merge",
            lambda a, b, p: _round_merge(a, b, p, "processes"),
            tiers=("full",), injectable=True,
            notes="RoundArena shared-memory staging; full tier only for speed",
        ),
        # ---- Algorithm 2 (SPM) --------------------------------------
        Implementation(
            "core.segmented_merge.serial", "core", "merge",
            lambda a, b, p: segmented_parallel_merge(
                a, b, p, L=16, backend=cache.get("serial")
            ),
            injectable=True,
        ),
        Implementation(
            "backend.segmented_merge.threads", "backend", "merge",
            lambda a, b, p: segmented_parallel_merge(
                a, b, p, L=16, backend=cache.get("threads")
            ),
            race_backend="threads", injectable=True,
        ),
        # ---- extensions ---------------------------------------------
        Implementation("extension.streaming_merge", "extension", "merge", _streaming),
        Implementation("extension.inplace_parallel", "extension", "merge",
                       _inplace, injectable=True),
        Implementation(
            "extension.kway_merge.pairwise", "extension", "merge",
            lambda a, b, p: kway_merge([a, b], p, backend=cache.get("serial")),
            injectable=True,
        ),
        Implementation(
            "extension.kway_merge", "extension", "kway",
            lambda arrays, p: kway_merge(
                list(arrays), p, backend=cache.get("serial")
            ),
            injectable=True,
        ),
        Implementation("extension.argmerge", "extension", "keyed",
                       lambda a, b, p: argmerge(a, b)),
        Implementation("extension.merge_by_key.threads", "extension", "keyed",
                       _keyed_by_key, injectable=True),
        Implementation("extension.merge_records", "extension", "keyed",
                       _keyed_records, injectable=True),
        # ---- multiset operations (std::set_* semantics) -------------
        Implementation(
            "extension.setops.union", "extension", "setop",
            lambda a, b, p: set_union(a, b),
            stable=False, notes="value-level multiset semantics",
        ),
        Implementation(
            "extension.setops.intersection", "extension", "setop",
            lambda a, b, p: set_intersection(a, b),
            stable=False, notes="value-level multiset semantics",
        ),
        Implementation(
            "extension.setops.difference", "extension", "setop",
            lambda a, b, p: set_difference(a, b),
            stable=False, notes="value-level multiset semantics",
        ),
        Implementation(
            "extension.setops.symmetric_difference", "extension", "setop",
            lambda a, b, p: set_symmetric_difference(a, b),
            stable=False, notes="value-level multiset semantics",
        ),
        # ---- GPU model ----------------------------------------------
        Implementation(
            "gpu.blocked_merge", "gpu", "merge",
            lambda a, b, p: blocked_merge(a, b, small_gpu, collect_stats=False)[0],
        ),
        # ---- PRAM simulator -----------------------------------------
        Implementation(
            "pram.parallel_merge", "pram", "merge", _pram,
            max_elements=96,
            notes="lockstep CREW machine; cycles are Python-slow",
        ),
        # ---- baselines ----------------------------------------------
        Implementation(
            "baseline.shiloach_vishkin", "baseline", "merge",
            lambda a, b, p: sv_merge(a, b, p),
        ),
        Implementation(
            "baseline.akl_santoro", "baseline", "merge",
            lambda a, b, p: akl_santoro_merge(a, b, p),
        ),
        Implementation(
            "baseline.deo_sarkar", "baseline", "merge",
            lambda a, b, p: deo_sarkar_merge(a, b, p),
        ),
        Implementation(
            "baseline.heap_kway", "baseline", "merge",
            lambda a, b, p: heap_kway_merge([a, b]),
        ),
        Implementation(
            "baseline.odd_even_merge", "baseline", "merge",
            lambda a, b, p: odd_even_merge(a, b),
            stable=False,
            notes="comparator network; makes no stability promise",
        ),
        Implementation(
            "baseline.naive_split", "baseline", "merge",
            lambda a, b, p: naive_split_merge(a, b, p),
            known_unsound=True,
            notes="the paper's introduction counterexample; must fail",
        ),
        # ---- sorts --------------------------------------------------
        Implementation(
            "core.parallel_merge_sort.threads", "core", "sort",
            lambda x, p: parallel_merge_sort(x, p, backend=cache.get("threads")),
            stable=False, injectable=True,
        ),
        Implementation(
            "core.cache_efficient_sort", "core", "sort",
            lambda x, p: cache_efficient_sort(
                x, p, 96, backend=cache.get("serial")
            ),
            stable=False, injectable=True,
        ),
        Implementation(
            "core.natural_merge_sort", "core", "sort",
            lambda x, p: natural_merge_sort(x, p, backend=cache.get("serial")),
            stable=False, injectable=True,
        ),
        Implementation(
            "gpu.blocked_sort", "gpu", "sort",
            lambda x, p: _blocked_sort(x),
            stable=False,
        ),
        Implementation(
            "external.spm_sort", "extension", "sort",
            _extsort, stable=False, injectable=True,
            notes="out-of-core SPM-planned external sort, tiny RAM budget "
                  "so every case spills and fans in through block merges "
                  "(stable in fact; the probe harness is merge-only)",
        ),
        Implementation(
            "baseline.bitonic_sort", "baseline", "sort",
            lambda x, p: bitonic_sort(x),
            stable=False,
        ),
    ]

    return {
        impl.name: impl
        for impl in impls
        if tier in impl.tiers
    }
