"""Per-layer timing from the benchmark's own files.

:class:`LayerProbe` wraps, for the duration of a traced pass, the
functions through which every entry point reaches a lower layer:

* ``Backend.run_batch`` — the one method every entry point dispatches
  through (resilience and fault wrappers call ``run_tasks`` underneath,
  so only the outermost batch is seen).  The wrapper records the batch
  wall time and each task's ``TaskResult.elapsed_s``.
* the partition searches (``partition_merge_path`` and SPM's
  ``diagonal_intersection``), by rebinding the names in the modules that
  call them.

Nothing is passed into the program: no ``trace=``, no explicit backend.
A traced call therefore resolves the same backend through the autotuner,
takes the same hooks and arenas, and runs on the same warm pools as an
untraced one; only the wrappers' own cost is added, and the benchmark
reports it as ``trace.overhead_pct``.

Accounting for one call: partition time + the batch walls + the rest
(``framework``: validation, backend resolution, allocation) equals the
call's wall time.  A batch wall splits into the task time on its
critical path (``kernel``) and the remainder (``dispatch``: submitting,
waking workers, the barrier).
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

from common import median, share

#: Batches whose tasks run the merge kernel (``kernel.ns_per_elem``).
MERGE_LABELS = frozenset({
    "merge.partition", "merge.shared", "spm.block", "sort.round",
    "extsort.pass", "serve.batch",
})
#: Batches of Algorithm 1 segments, whose spread is the load balance.
SEGMENT_LABELS = frozenset({
    "merge.partition", "merge.shared", "spm.block", "sort.round", "extsort.pass",
})

#: Per-layer metrics of layers only some workloads reach; the others report 0.
SERVE_METRICS = frozenset({
    "serve.codec_us_per_req", "serve.server_ms_p50", "serve.server_ms_p99",
    "serve.wire_ms_p50", "serve.batch_size_mean", "serve.dispatches_per_req",
    "serve.shed",
})
SPM_METRICS = frozenset({"spm.melem_s", "spm.blocks", "spm.barrier_us_per_block"})
SORT_METRICS = frozenset({
    "sort.chunks_ms", "sort.rounds_ms", "sort.rounds",
    "extsort.melem_s", "extsort.form_ms", "extsort.merge_ms", "extsort.plan_ms",
    "extsort.transfer_ratio", "extsort.blocks", "extsort.passes",
})

_PARTITION_SITES = (
    ("repro.core.parallel_merge", "partition_merge_path"),
    ("repro.execution.engine", "partition_merge_path"),
    ("repro.core.segmented_merge", "partition_merge_path"),
    ("repro.core.segmented_merge", "diagonal_intersection"),
)


@dataclass(slots=True)
class Batch:
    label: str
    tasks: int
    wall_s: float
    task_s: list[float]
    workers: int  #: tasks the backend runs at once

    @property
    def critical_s(self) -> float:
        """Task time on the batch's critical path: the slowest task, or the
        busy time per worker when there are more tasks than workers."""
        return max(max(self.task_s, default=0.0), sum(self.task_s) / self.workers)

    @property
    def weight(self) -> int:
        """Requests served by the batch (a coalesced serve window serves
        one per task; every other batch belongs to one call)."""
        return self.tasks if self.label == "serve.batch" else 1


@dataclass(slots=True)
class Window:
    """What the probe saw between two marks."""

    partition_s: float = 0.0
    batches: list[Batch] = field(default_factory=list)

    def add(self, other: "Window") -> None:
        self.partition_s += other.partition_s
        self.batches.extend(other.batches)

    def wall(self, *labels: str) -> float:
        return sum(b.wall_s for b in self.batches if b.label in labels)

    def count(self, *labels: str) -> int:
        return sum(1 for b in self.batches if b.label in labels)


class LayerProbe:
    """Context manager installing the wrappers described in the module doc.
    ``workers`` is the ``p`` of the calls traced; the serial backend runs
    one task at a time whatever ``p`` is."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.partition_s = 0.0
        self.batches: list[Batch] = []
        self._saved: list[tuple[object, str, object]] = []
        # A server partitions on several executor threads at once.
        self._lock = threading.Lock()

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.partition_s += elapsed
        return wrapper

    def __enter__(self) -> "LayerProbe":
        from repro.backends.base import Backend

        inner = Backend.run_batch
        batches = self.batches

        def run_batch(backend, batch):
            t0 = time.perf_counter()
            results = inner(backend, batch)
            wall = time.perf_counter() - t0
            batches.append(Batch(batch.label, len(batch.tasks), wall,
                                 [r.elapsed_s for r in results],
                                 1 if backend.name == "serial" else self.workers))
            return results

        self._saved.append((Backend, "run_batch", inner))
        Backend.run_batch = run_batch
        for module_name, name in _PARTITION_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._timed(fn))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def mark(self) -> tuple[float, int]:
        return (self.partition_s, len(self.batches))

    def since(self, mark: tuple[float, int]) -> Window:
        p0, b0 = mark
        return Window(self.partition_s - p0, self.batches[b0:])


def account(calls: int, wall_s: float, elements: int, seen: Window) -> dict[str, float]:
    """The library-layer metrics of ``calls`` calls taking ``wall_s`` in
    total, producing ``elements`` output elements, during which the probe
    saw ``seen``.  Batch times are weighted by the requests they served, so
    for a server ``wall_s`` is the sum of per-request server times."""
    batches = seen.batches
    critical = sum(b.critical_s * b.weight for b in batches)
    dispatch = sum((b.wall_s - b.critical_s) * b.weight for b in batches)
    framework = wall_s - seen.partition_s - critical - dispatch
    merge_task_s = sum(sum(b.task_s) for b in batches if b.label in MERGE_LABELS)
    spreads = [max(b.task_s) / (sum(b.task_s) / len(b.task_s))
               for b in batches
               if b.label in SEGMENT_LABELS and len(b.task_s) > 1 and sum(b.task_s) > 0]
    return {
        "partition.us": seen.partition_s / calls * 1e6,
        "partition.share": share(seen.partition_s, wall_s),
        "kernel.ns_per_elem": merge_task_s / elements * 1e9 if elements else 0.0,
        "kernel.share": share(critical, wall_s),
        "dispatch.us_per_batch": (
            sum(b.wall_s - b.critical_s for b in batches) / len(batches) * 1e6
            if batches else 0.0),
        "dispatch.batches_per_call": len(batches) / calls,
        "dispatch.share": share(dispatch, wall_s),
        "balance.time_imbalance": median(spreads) if spreads else 1.0,
        "framework.us": framework / calls * 1e6,
        "framework.share": share(framework, wall_s),
    }
