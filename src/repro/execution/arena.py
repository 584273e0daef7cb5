"""Shared-memory staging for whole batches on the process backend.

Process-pool tasks must be picklable, so closures over the caller's
arrays cannot ship.  The arenas here copy a batch's inputs once into
**two** shared blocks, whatever the pair count, and hand out picklable
jobs that carry only integer offsets into them:

:class:`RoundArena`
    One input block holding every run of the batch back to back, one
    output block holding every merged pair back to back.  A one-pair
    arena stages a single partitioned merge.  Jobs are idempotent —
    same disjoint bytes on re-execution — which is what lets
    :class:`repro.resilience.ResilientBackend` retry or speculate them
    freely (Theorem 14).

:class:`ChunkSortArena`
    Round 0 of the sort: the unsorted array in one block, each chunk
    sorted into its slice of a second block by its worker.

Both are context managers; the parent owns block lifetime (workers only
ever ``close()``, never ``unlink()``).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Callable, Sequence

import functools

import numpy as np

from ..types import Partition

__all__ = ["RoundArena", "ChunkSortArena"]


def _attach(name: str) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(name=name)


def _merge_segment_offsets(
    args: tuple[str, str, str, int, int, int, int, int, int, int, int, int, int],
) -> int:
    """Merge one segment of one pair inside a worker process.

    All coordinates are *element* offsets into the round's two shared
    blocks: the pair's A run lives at ``a_off`` (length ``a_len``), its
    B run at ``b_off``, its output at ``out_off``; the segment then
    addresses sub-ranges of those runs exactly as in Algorithm 1.
    """
    from ..core.sequential import merge_into

    (name_in, name_out, dtype_str,
     a_off, a_len, b_off, b_len, out_off,
     a0, a1, b0, b1, o0) = args
    dtype = np.dtype(dtype_str)
    item = dtype.itemsize
    shm_in = _attach(name_in)
    shm_out = _attach(name_out)
    try:
        a = np.ndarray((a_len,), dtype=dtype, buffer=shm_in.buf,
                       offset=a_off * item)
        b = np.ndarray((b_len,), dtype=dtype, buffer=shm_in.buf,
                       offset=b_off * item)
        seg_len = (a1 - a0) + (b1 - b0)
        out = np.ndarray((seg_len,), dtype=dtype, buffer=shm_out.buf,
                         offset=(out_off + o0) * item)
        merge_into(out, a[a0:a1], b[b0:b1])
    finally:
        shm_in.close()
        shm_out.close()
    return out_off + o0


def _sort_chunk_shm(
    args: tuple[str, str, str, int, int],
) -> int:
    """Sort one chunk of the round-0 input inside a worker process.

    The chunk is sorted into a private array and then copied whole into
    its output slice, so a speculative duplicate only ever writes the
    same finished bytes.
    """
    from ..core.sequential import sort_chunk

    (name_in, name_out, dtype_str, lo, hi) = args
    dtype = np.dtype(dtype_str)
    item = dtype.itemsize
    shm_in = _attach(name_in)
    shm_out = _attach(name_out)
    try:
        src = np.ndarray((hi - lo,), dtype=dtype, buffer=shm_in.buf,
                         offset=lo * item)
        dst = np.ndarray((hi - lo,), dtype=dtype, buffer=shm_out.buf,
                         offset=lo * item)
        dst[:] = sort_chunk(src)
    finally:
        shm_in.close()
        shm_out.close()
    return lo


class _TwoBlockArena:
    """Common create/close logic for the in/out shared block pair."""

    def __init__(self, dtype: np.dtype, in_elems: int, out_elems: int) -> None:
        self._dtype = dtype
        item = dtype.itemsize
        self._shm_in = shared_memory.SharedMemory(
            create=True, size=max(1, in_elems * item))
        self._shm_out = shared_memory.SharedMemory(
            create=True, size=max(1, out_elems * item))

    def close(self) -> None:
        for shm in (self._shm_in, self._shm_out):
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RoundArena(_TwoBlockArena):
    """Stage every pair of one merge round in two shared blocks.

    ``pairs`` is a sequence of ``(a, b, partition)`` triples.  The runs
    are copied into the input block once; ``tasks()`` yields one
    picklable job per non-empty segment across *all* pairs — the round's
    entire :class:`~repro.backends.TaskBatch`.  ``results()`` copies
    each pair's merged output back out in pair order.
    """

    def __init__(
        self, pairs: Sequence[tuple[np.ndarray, np.ndarray, Partition]]
    ) -> None:
        dtype = np.result_type(*(
            np.promote_types(a.dtype, b.dtype) for a, b, _ in pairs
        ))
        in_elems = sum(len(a) + len(b) for a, b, _ in pairs)
        super().__init__(np.dtype(dtype), in_elems, in_elems)
        try:
            self._pair_slices: list[tuple[int, int]] = []
            self.jobs: list[tuple] = []
            cursor = 0
            for a, b, part in pairs:
                a_off, b_off = cursor, cursor + len(a)
                out_off = a_off  # output tiles the block identically
                item = self._dtype.itemsize
                np.ndarray((len(a),), dtype=self._dtype,
                           buffer=self._shm_in.buf, offset=a_off * item)[:] = a
                np.ndarray((len(b),), dtype=self._dtype,
                           buffer=self._shm_in.buf, offset=b_off * item)[:] = b
                for s in part.segments:
                    if s.length == 0:
                        continue
                    self.jobs.append((
                        self._shm_in.name, self._shm_out.name,
                        self._dtype.str,
                        a_off, len(a), b_off, len(b), out_off,
                        s.a_start, s.a_end, s.b_start, s.b_end, s.out_start,
                    ))
                cursor += len(a) + len(b)
                self._pair_slices.append((out_off, cursor))
        except BaseException:
            self.close()
            raise

    def tasks(self) -> list[Callable[[], int]]:
        return [functools.partial(_merge_segment_offsets, j) for j in self.jobs]

    def results(
        self, outs: Sequence[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Each pair's merged output, in input order, copied out of
        shared memory into ``outs`` (fresh arrays when not given)."""
        item = self._dtype.itemsize
        if outs is None:
            outs = [np.empty(hi - lo, dtype=self._dtype)
                    for lo, hi in self._pair_slices]
        for out, (lo, hi) in zip(outs, self._pair_slices):
            out[...] = np.ndarray((hi - lo,), dtype=self._dtype,
                                  buffer=self._shm_out.buf, offset=lo * item)
        return list(outs)


class ChunkSortArena(_TwoBlockArena):
    """Stage the round-0 chunk sorts of one array in two shared blocks."""

    def __init__(self, arr: np.ndarray, bounds: Sequence[int]) -> None:
        super().__init__(arr.dtype, len(arr), len(arr))
        try:
            np.ndarray((len(arr),), dtype=arr.dtype,
                       buffer=self._shm_in.buf)[:] = arr
            self._bounds = [
                (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
            ]
            self.jobs = [
                (self._shm_in.name, self._shm_out.name, self._dtype.str, lo, hi)
                for lo, hi in self._bounds
            ]
        except BaseException:
            self.close()
            raise

    def tasks(self) -> list[Callable[[], int]]:
        return [functools.partial(_sort_chunk_shm, j) for j in self.jobs]

    def results(self) -> list[np.ndarray]:
        """The sorted runs, in chunk order (copied out)."""
        item = self._dtype.itemsize
        return [
            np.ndarray((hi - lo,), dtype=self._dtype,
                       buffer=self._shm_out.buf, offset=lo * item).copy()
            for lo, hi in self._bounds
        ]
