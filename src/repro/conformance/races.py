"""Backend race detection via per-slice write-set tracking.

The paper's lock-freedom argument (Remark after Algorithm 1) is that
processors write *disjoint* output slices, so no synchronization is
needed.  The PRAM simulator proves this per cycle for the lockstep
model; this module proves it for the **real threads backend**: the
output array is replaced by an ndarray subclass that records every
write — which flat addresses, by which task — and an audit afterwards
flags

* any address written more than once (a write-write race),
* any write outside the writing task's declared output slice
  (a claim violation — the write would race with the slice's owner),
* any address never written (a coverage hole: the barrier would return
  an uninitialized region).

The tracking array piggybacks on the *actual* production kernel
(:func:`repro.core.sequential.merge_into`) and the *actual* thread
pool, so what is audited is the code that runs in production, not a
model of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..backends import get_backend
from ..core.merge_path import partition_merge_path
from ..core.sequential import merge_into, result_dtype
from ..types import Partition
from .invariants import stable_merge_oracle

__all__ = [
    "RaceFinding",
    "WriteAudit",
    "WriteTrackingArray",
    "audited_parallel_merge",
    "audited_batched_round",
]


@dataclass(frozen=True)
class RaceFinding:
    """One detected violation of the disjoint-writes contract."""

    kind: str  # "double-write" | "out-of-slice" | "uncovered" | "wrong-result"
    detail: str


class WriteAudit:
    """Thread-safe recorder of (task, flat address range) write events."""

    def __init__(self, base_addr: int, itemsize: int, length: int) -> None:
        self.base_addr = base_addr
        self.itemsize = itemsize
        self.length = length
        self._lock = threading.Lock()
        self._local = threading.local()
        #: list of (task_id, flat int64 index array) in commit order
        self.events: list[tuple[int, np.ndarray]] = []

    def set_task(self, task_id: int | None) -> None:
        """Tag subsequent writes from this thread with ``task_id``."""
        self._local.task = task_id

    def current_task(self) -> int:
        return getattr(self._local, "task", -1)

    def record(self, view: np.ndarray, key: object) -> None:
        """Record a ``view[key] = ...`` write in base-array coordinates."""
        offset = (view.__array_interface__["data"][0] - self.base_addr) // self.itemsize
        idx = np.atleast_1d(np.arange(view.shape[0], dtype=np.int64)[key])
        event = (self.current_task(), idx + offset)
        with self._lock:
            self.events.append(event)

    # ------------------------------------------------------------------
    # Post-run analysis
    # ------------------------------------------------------------------
    def findings(
        self,
        partition: Partition | None = None,
        *,
        task_slices: dict[int, tuple[int, int]] | None = None,
    ) -> list[RaceFinding]:
        """Audit the recorded write events against the disjointness contract.

        Declared ownership comes either from ``partition`` (task id =
        segment index, the single-pair case) or from an explicit
        ``task_slices`` map of task id → ``(out_start, out_end)`` —
        the batched-round case, where one dispatch carries segments of
        many pairs at distinct base offsets.
        """
        if task_slices is None and partition is not None:
            task_slices = {
                i: (seg.out_start, seg.out_end)
                for i, seg in enumerate(partition.segments)
            }
        out: list[RaceFinding] = []
        counts = np.zeros(self.length, dtype=np.int64)
        for task_id, idx in self.events:
            counts[idx] += 1
            if task_slices is not None and task_id in task_slices:
                lo, hi = task_slices[task_id]
                stray = idx[(idx < lo) | (idx >= hi)]
                if stray.size:
                    out.append(
                        RaceFinding(
                            "out-of-slice",
                            f"task {task_id} wrote address {int(stray[0])} "
                            f"outside its slice [{lo}, {hi})",
                        )
                    )
        doubled = np.nonzero(counts > 1)[0]
        if doubled.size:
            writers = sorted(
                task_id
                for task_id, idx in self.events
                if int(doubled[0]) in set(int(i) for i in idx)
            )
            out.append(
                RaceFinding(
                    "double-write",
                    f"address {int(doubled[0])} written {int(counts[doubled[0]])} "
                    f"times (tasks {writers}); {doubled.size} address(es) affected",
                )
            )
        holes = np.nonzero(counts == 0)[0]
        if holes.size:
            out.append(
                RaceFinding(
                    "uncovered",
                    f"{holes.size} address(es) never written, first at "
                    f"{int(holes[0])}",
                )
            )
        return out


class WriteTrackingArray(np.ndarray):
    """ndarray subclass that reports every ``__setitem__`` to a WriteAudit.

    Slicing preserves the subclass, so the views handed to worker tasks
    keep reporting; addresses are reconstructed from the view's buffer
    pointer, which is exact for the contiguous 1-D slices Algorithm 1
    produces.
    """

    _audit: WriteAudit | None

    def __array_finalize__(self, obj: object) -> None:
        self._audit = getattr(obj, "_audit", None)

    def __setitem__(self, key: object, value: object) -> None:
        audit = getattr(self, "_audit", None)
        if audit is not None:
            audit.record(self, key)
        super().__setitem__(key, value)


def audited_parallel_merge(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    *,
    backend: str = "threads",
    partition: Partition | None = None,
) -> list[RaceFinding]:
    """Run Algorithm 1 on the real ``backend`` with write tracking.

    Mirrors :func:`repro.core.parallel_merge.merge_partition` task for
    task — same partitioner, same ``merge_into`` kernel, same thread
    pool — but the output array records its writers.  Passing an
    explicit ``partition`` lets tests inject a *corrupted* partition
    (overlapping slices) and verify the detector fires.

    Returns the list of findings (empty == race-free and correct).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    part = partition if partition is not None else partition_merge_path(a, b, p)
    n = len(a) + len(b)
    base = np.empty(n, dtype=result_dtype(a, b))
    audit = WriteAudit(
        base_addr=base.__array_interface__["data"][0],
        itemsize=base.itemsize,
        length=n,
    )
    out = base.view(WriteTrackingArray)
    out._audit = audit

    def make_task(seg):
        def task() -> None:
            audit.set_task(seg.index)
            try:
                merge_into(
                    out[seg.out_start : seg.out_end],
                    a[seg.a_start : seg.a_end],
                    b[seg.b_start : seg.b_end],
                )
            finally:
                audit.set_task(None)

        return task

    tasks = [make_task(seg) for seg in part.segments if seg.length > 0]
    be = get_backend(backend, max_workers=max(1, p))
    try:
        be.run_tasks(tasks)
    finally:
        be.close()

    findings = audit.findings(part)
    ref = stable_merge_oracle(a, b)
    if not np.array_equal(base, ref):
        findings.append(
            RaceFinding("wrong-result", "merged output differs from the oracle")
        )
    return findings


def audited_batched_round(
    runs: list[np.ndarray],
    procs_per_pair: int,
    *,
    backend: str = "threads",
    corrupt_task_slices: dict[int, tuple[int, int]] | None = None,
) -> list[RaceFinding]:
    """Race-audit one *batched* merge round across every pair at once.

    Mirrors :func:`repro.execution.engine.run_merge_round`'s fused
    dispatch — all pairs' segment tasks in a single
    :class:`~repro.backends.TaskBatch` on the real ``backend`` — with
    the whole round's output in one write-tracked array, so a stray
    write from pair ``i`` into pair ``j``'s region (a cross-pair race
    the per-pair auditor cannot see) is detected.  An odd trailing run
    is carried, not dispatched, exactly as in the engine.

    ``corrupt_task_slices`` overrides the declared ownership map so
    tests can verify the detector fires on a batch whose claims lie.

    Returns the list of findings (empty == race-free and correct).
    """
    from ..backends import TaskBatch

    runs = [np.asarray(r) for r in runs]
    if len(runs) < 2:
        return []
    pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
    partitions = [
        partition_merge_path(a, b, procs_per_pair, check=False)
        for a, b in pairs
    ]

    total = sum(len(a) + len(b) for a, b in pairs)
    dtype = result_dtype(*pairs[0])
    for a, b in pairs[1:]:
        dtype = np.promote_types(dtype, result_dtype(a, b))
    base = np.empty(total, dtype=dtype)
    audit = WriteAudit(
        base_addr=base.__array_interface__["data"][0],
        itemsize=base.itemsize,
        length=total,
    )
    out = base.view(WriteTrackingArray)
    out._audit = audit

    task_slices: dict[int, tuple[int, int]] = {}
    tasks = []
    offset = 0
    task_id = 0
    for (a, b), part in zip(pairs, partitions):
        for seg in part.segments:
            if seg.length == 0:
                continue

            def make_task(a=a, b=b, seg=seg, off=offset, tid=task_id):
                def task() -> None:
                    audit.set_task(tid)
                    try:
                        merge_into(
                            out[off + seg.out_start : off + seg.out_end],
                            a[seg.a_start : seg.a_end],
                            b[seg.b_start : seg.b_end],
                        )
                    finally:
                        audit.set_task(None)

                return task

            tasks.append(make_task())
            task_slices[task_id] = (
                offset + seg.out_start, offset + seg.out_end,
            )
            task_id += 1
        offset += len(a) + len(b)

    be = get_backend(backend, max_workers=max(1, procs_per_pair * len(pairs)))
    try:
        be.run_batch(TaskBatch(tasks, label="sort.round",
                               meta={"pairs": len(pairs)}))
    finally:
        be.close()

    findings = audit.findings(
        task_slices=corrupt_task_slices
        if corrupt_task_slices is not None else task_slices
    )
    ref = np.concatenate([stable_merge_oracle(a, b) for a, b in pairs])
    if not np.array_equal(base, ref):
        findings.append(
            RaceFinding("wrong-result",
                        "batched round output differs from the oracle")
        )
    return findings
