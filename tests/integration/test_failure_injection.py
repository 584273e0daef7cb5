"""Failure-injection tests: break each layer's contract and verify the
system notices (or document precisely what goes wrong when it can't).
"""

import numpy as np
import pytest

from repro.backends.base import Backend, TaskResult
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge_partition, parallel_merge
from repro.errors import (
    BackendError,
    DeadlockError,
    MemoryConflictError,
    NotSortedError,
)
from repro.pram.machine import PRAMMachine
from repro.pram.memory import AccessMode, SharedMemory
from repro.pram.program import Compute, Read, Write
from repro.types import Partition, Segment


class DroppingBackend(Backend):
    """A broken executor that silently skips every other task."""

    name = "dropping"

    def run_tasks(self, tasks):
        return [
            self._timed(i, task) for i, task in enumerate(tasks) if i % 2 == 0
        ]


class FlakyBackend(Backend):
    """An executor whose third task always crashes."""

    name = "flaky"

    def run_tasks(self, tasks):
        results = []
        for i, task in enumerate(tasks):
            if i == 2:
                raise BackendError("task 2 failed: injected fault")
            results.append(self._timed(i, task))
        return results


class TestBackendFaults:
    def test_dropped_tasks_leave_output_unmerged(self):
        """Skipping segments produces garbage in their output ranges —
        the barrier exists precisely to prevent consuming such output."""
        a = np.arange(0, 64, 2)
        b = np.arange(1, 65, 2)
        part = partition_merge_path(a, b, 4)
        out = merge_partition(a, b, part, backend=DroppingBackend())
        # the even segments were merged, the odd ones never written
        expected = np.sort(np.concatenate([a, b]))
        assert not np.array_equal(out, expected)
        s0 = part.segments[0]
        np.testing.assert_array_equal(
            out[s0.out_start : s0.out_end], expected[s0.out_start : s0.out_end]
        )

    def test_task_exception_propagates_not_swallowed(self):
        a = np.arange(0, 64, 2)
        b = np.arange(1, 65, 2)
        with pytest.raises(BackendError, match="injected fault"):
            parallel_merge(a, b, 4, backend=FlakyBackend())


class TestCorruptPartitions:
    def test_overlapping_partition_rejected_by_validate(self):
        bad = Partition(
            a_len=4,
            b_len=0,
            segments=(
                Segment(0, 0, 3, 0, 0, 0, 3),
                Segment(1, 2, 4, 0, 0, 3, 5),  # overlaps a[2:3]
            ),
        )
        with pytest.raises(AssertionError):
            bad.validate()

    def test_duplicated_output_offset_caught_by_pram_auditor(self):
        """A partition bug where two processors compute the same output
        offset: on real hardware a silent race; on the audited PRAM, an
        immediate MemoryConflictError at the first co-scheduled write.
        (Merely *overlapping* ranges written at skewed cycles are legal
        per the PRAM cycle model — last write wins — which is exactly
        why such bugs are so nasty on real machines.)"""
        from repro.pram.baseline_programs import run_partitioned_merge_pram

        a = np.array([1, 2, 3, 4])
        b = np.array([], dtype=np.int64)
        bad = Partition(
            a_len=4,
            b_len=0,
            segments=(
                Segment(0, 0, 3, 0, 0, 0, 3),
                Segment(1, 1, 4, 0, 0, 0, 3),  # same out_start: collides
            ),
        )
        with pytest.raises(MemoryConflictError):
            run_partitioned_merge_pram(a, b, bad)


class TestBadInputsSurfaceEarly:
    def test_unsorted_detected_before_any_work(self):
        a = np.arange(100)
        a[50] = 0  # corrupt one element
        with pytest.raises(NotSortedError) as exc:
            parallel_merge(a, np.arange(10), 4, backend="serial")
        assert exc.value.index == 49

    def test_nan_poisoned_float_input(self):
        """The sortedness check uses NumPy's order, which puts NaN last:
        a NaN before a number is a descent even though every comparison
        with NaN is false."""
        bad = np.array([3.0, 1.0, np.nan])
        with pytest.raises(NotSortedError):
            parallel_merge(bad, np.array([1.0]), 2, backend="serial")
        with pytest.raises(NotSortedError) as exc:
            parallel_merge(np.array([1.0, np.nan, 2.0]), np.array([1.5]), 1,
                           backend="serial")
        assert exc.value.index == 1
        # NaN-last input is sorted, and the NaN stays last
        out = parallel_merge(np.array([1.0, 2.0, np.nan]), np.array([1.5]),
                             2, backend="serial")
        assert np.array_equal(out, [1.0, 1.5, 2.0, np.nan], equal_nan=True)


class TestPRAMFaults:
    def test_runaway_program_hits_deadlock_guard(self):
        mem = SharedMemory(AccessMode.CREW)
        mem.alloc("X", 4)
        machine = PRAMMachine(mem, max_cycles=100)

        def spin():
            while True:
                yield Compute()

        with pytest.raises(DeadlockError):
            machine.run([spin()])

    def test_out_of_bounds_program_rejected(self):
        mem = SharedMemory(AccessMode.CREW)
        mem.alloc("X", 4)
        machine = PRAMMachine(mem)

        def wild():
            yield Read("X", 99)

        from repro.errors import InputError

        with pytest.raises(InputError):
            machine.run([wild()])

    def test_write_race_on_shared_counter(self):
        """The textbook bug: every processor increments a shared counter.
        CREW catches the very first concurrent write."""
        mem = SharedMemory(AccessMode.CREW)
        mem.alloc("C", 1)
        machine = PRAMMachine(mem)

        def incr():
            v = yield Read("C", 0)
            yield Write("C", 0, v + 1)

        with pytest.raises(MemoryConflictError):
            machine.run([incr(), incr()])


class TestStreamFaults:
    def test_mid_stream_corruption_detected_at_the_element(self):
        from repro.core.streaming import streaming_merge

        def corrupted():
            yield from range(1000)
            yield 500  # late corruption

        gen = streaming_merge(corrupted(), iter([]), L=64)
        consumed = 0
        with pytest.raises(NotSortedError):
            for block in gen:
                consumed += len(block)
        # everything before the corruption was already safely emitted
        assert consumed >= 900
