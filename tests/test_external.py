"""Tests for the external-memory sort substrate."""

import os

import numpy as np
import pytest

from repro.errors import InputError
from repro.external import (
    IOCounter,
    aggarwal_vitter_bound,
    external_sort,
    external_sort_file,
)

from .conftest import spill_runs


def _sort_file(tmp_path, x, memory, **kwargs):
    """``external_sort_file`` over ``x`` saved to ``tmp_path/in.npy``."""
    in_path = os.path.join(str(tmp_path), "in.npy")
    np.save(in_path, np.asarray(x))
    return external_sort_file(in_path, memory_elements=memory,
                              directory=str(tmp_path), backend="serial",
                              **kwargs)


class TestIOCounter:
    def test_block_rounding_up(self):
        io = IOCounter(block_elements=100)
        io.charge_read(250)
        assert io.read_blocks == 3

    def test_zero_elements_free(self):
        io = IOCounter(block_elements=100)
        io.charge_read(0)
        io.charge_write(0)
        assert io.total_blocks == 0

    def test_negative_rejected(self):
        io = IOCounter(block_elements=4)
        with pytest.raises(InputError):
            io.charge_read(-1)

    def test_bad_block_size(self):
        with pytest.raises(InputError):
            IOCounter(block_elements=0)


class TestIOCounterMerge:
    def test_fold_adds_counts(self):
        a = IOCounter(block_elements=64)
        b = IOCounter(block_elements=64)
        a.charge_read(128)
        b.charge_read(64)
        b.charge_write(256)
        a.merge(b)
        assert a.read_blocks == 3
        assert a.write_blocks == 4
        # the folded shard is unchanged
        assert b.read_blocks == 1 and b.write_blocks == 4

    def test_fold_order_deterministic(self):
        """Folding shards in task order gives the same totals no matter
        how the backend interleaved the workers — counts are additive."""
        shards = []
        for k in range(5):
            s = IOCounter(block_elements=16)
            s.charge_read(16 * (k + 1))
            shards.append(s)
        fwd = IOCounter(block_elements=16)
        for s in shards:
            fwd.merge(s)
        rev = IOCounter(block_elements=16)
        for s in reversed(shards):
            rev.merge(s)
        assert fwd.total_blocks == rev.total_blocks == 15

    def test_block_size_mismatch_rejected(self):
        a = IOCounter(block_elements=64)
        b = IOCounter(block_elements=32)
        with pytest.raises(InputError):
            a.merge(b)


class TestRunFileWindows:
    def test_read_range_window(self, tmp_path):
        [run] = spill_runs(tmp_path, np.arange(100), 100)
        io = IOCounter(block_elements=8)
        window = run.read_range(10, 26, io=io)
        np.testing.assert_array_equal(window, np.arange(10, 26))
        assert io.read_blocks == 2  # 16 elements in 8-element blocks

    def test_read_range_bounds_checked(self, tmp_path):
        [run] = spill_runs(tmp_path, np.arange(10), 100)
        with pytest.raises(InputError):
            run.read_range(5, 11)
        with pytest.raises(InputError):
            run.read_range(-1, 5)

    def test_unlink_idempotent(self, tmp_path):
        [run] = spill_runs(tmp_path, np.arange(10), 100)
        run.unlink()
        assert not os.path.exists(run.path)
        run.unlink()  # second unlink is a no-op, not an error

    def test_open_memmap_searchsorted(self, tmp_path):
        [run] = spill_runs(tmp_path, np.arange(0, 200, 2), 200)
        mm = run.open_memmap()
        assert int(np.searchsorted(mm, 100)) == 50


class TestAggarwalVitterBound:
    def test_in_memory_is_free(self):
        assert aggarwal_vitter_bound(100, 1000, 10) == 0.0

    def test_grows_with_n(self):
        b1 = aggarwal_vitter_bound(10_000, 1000, 10)
        b2 = aggarwal_vitter_bound(100_000, 1000, 10)
        assert b2 > b1 > 0

    def test_more_memory_fewer_transfers(self):
        tight = aggarwal_vitter_bound(100_000, 1000, 10)
        roomy = aggarwal_vitter_bound(100_000, 10_000, 10)
        assert roomy < tight

    def test_memory_must_exceed_block(self):
        with pytest.raises(InputError):
            aggarwal_vitter_bound(100, 10, 10)


class TestFormRuns:
    def test_run_count_and_sortedness(self, tmp_path):
        g = np.random.default_rng(0)
        x = g.integers(0, 999, 1000)
        final, rep = _sort_file(tmp_path, x, 256)
        assert rep.runs == 4
        data = final.read_all()
        assert np.all(data[:-1] <= data[1:])
        assert len(data) == 1000

    def test_io_charged(self, tmp_path):
        io = IOCounter(block_elements=64)
        _, rep = _sort_file(tmp_path, np.arange(256), 256, io=io)
        assert rep.runs == 1 and rep.passes == 0  # formation only
        assert io.read_blocks == 4   # 256 elements in
        assert io.write_blocks == 4  # 256 elements out

    def test_missing_directory(self, tmp_path):
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, np.arange(4))
        with pytest.raises(InputError):
            external_sort_file(in_path, memory_elements=2,
                               directory="/nonexistent/dir")


class TestMergeRunFiles:
    def test_merges_sorted(self, tmp_path):
        g = np.random.default_rng(1)
        x = g.integers(0, 99, 600)
        final, rep = _sort_file(tmp_path, x, 100, block_elements=16)
        assert rep.runs == 6 and rep.passes == 1
        np.testing.assert_array_equal(final.read_all(), np.sort(x))

    def test_single_run_passthrough(self, tmp_path):
        final, rep = _sort_file(tmp_path, np.arange(10)[::-1], 100)
        assert rep.passes == 0 and rep.blocks == 0
        np.testing.assert_array_equal(final.read_all(), np.arange(10))
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["in.npy", os.path.basename(final.path)])


class TestExternalSort:
    @pytest.mark.parametrize("n,mem", [(0, 16), (1, 16), (100, 16),
                                       (1000, 64), (5000, 128)])
    def test_sorts(self, n, mem):
        g = np.random.default_rng(n)
        x = g.integers(0, 10**6, n)
        out = external_sort(x, mem)
        np.testing.assert_array_equal(out, np.sort(x))

    def test_fits_in_memory_single_run(self):
        x = np.array([3, 1, 2])
        np.testing.assert_array_equal(external_sort(x, 100), [1, 2, 3])

    def test_multiple_merge_passes(self):
        # fan_in 2 with 8 runs forces 3 passes
        g = np.random.default_rng(5)
        x = g.integers(0, 999, 800)
        io = IOCounter(block_elements=32)
        out = external_sort(x, 100, fan_in=2, io=io)
        np.testing.assert_array_equal(out, np.sort(x))
        # 8 runs -> 3 passes: each pass reads+writes all data once,
        # plus run formation; transfers must reflect multiple passes
        assert io.total_blocks > 3 * (800 // 32)

    def test_io_vs_av_bound(self):
        g = np.random.default_rng(6)
        n, mem, block = 20_000, 2048, 128
        x = g.integers(0, 10**6, n)
        io = IOCounter(block_elements=block)
        out = external_sort(x, mem, io=io)
        np.testing.assert_array_equal(out, np.sort(x))
        bound = aggarwal_vitter_bound(n, mem, block)
        # measured transfers within a small constant of the lower bound
        assert bound < io.total_blocks < 12 * bound

    def test_duplicate_heavy(self):
        g = np.random.default_rng(7)
        x = g.integers(0, 5, 2000)
        np.testing.assert_array_equal(external_sort(x, 128), np.sort(x))

    def test_fan_in_validation(self):
        with pytest.raises(InputError):
            external_sort(np.arange(10), 8, fan_in=1)

    def test_explicit_directory(self, tmp_path):
        x = np.random.default_rng(8).integers(0, 99, 300)
        out = external_sort(x, 64, directory=str(tmp_path))
        np.testing.assert_array_equal(out, np.sort(x))
        assert len(os.listdir(tmp_path)) > 0  # spills visible to caller

    def test_intermediates_reclaimed_on_success(self, tmp_path):
        """Consumed runs are unlinked pass by pass: only the final
        sorted run survives in a caller-supplied directory."""
        x = np.random.default_rng(9).integers(0, 999, 800)
        out = external_sort(x, 100, fan_in=2, directory=str(tmp_path))
        np.testing.assert_array_equal(out, np.sort(x))
        assert len(os.listdir(tmp_path)) == 1


class _DiskFull(IOCounter):
    """IOCounter whose fold of worker shards fails after a budget — a
    seeded disk-full surfacing in the driver."""

    def __init__(self, merge_calls: int) -> None:
        super().__init__(block_elements=16)
        self.calls = 0
        self.limit = merge_calls

    def merge(self, other: IOCounter) -> None:
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError("disk full (injected)")
        super().merge(other)


class TestLeakOnFailure:
    def test_merge_failure_leaves_directory_clean(self, tmp_path):
        """A merge pass that raises mid-way must not leak run files into
        the caller's directory."""
        x = np.random.default_rng(10).integers(0, 999, 300)
        # 300 elems / 64 per run = 5 runs = 5 formation folds; the 6th
        # fold is the first block of the first merge pass -> boom.
        io = _DiskFull(merge_calls=5)
        with pytest.raises(RuntimeError, match="disk full"):
            external_sort(x, 64, directory=str(tmp_path), io=io)
        assert io.calls == 6
        assert os.listdir(tmp_path) == []

    def test_formation_failure_leaves_directory_clean(self, tmp_path):
        x = np.random.default_rng(11).integers(0, 999, 300)
        io = _DiskFull(merge_calls=2)  # dies while still forming runs
        with pytest.raises(RuntimeError, match="disk full"):
            external_sort(x, 64, directory=str(tmp_path), io=io)
        assert io.calls == 3
        assert os.listdir(tmp_path) == []


class TestMergeRunStability:
    def test_ties_resolve_by_run_order(self, tmp_path):
        """Equal keys come out in run order (earlier run first), bit for
        bit: signed zeros and NaNs with distinct payloads are equal
        keys, so the stable sort is the only order that matches — also
        where a block boundary cuts through a tie group."""
        nan_a = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(),
                              dtype=np.float64)[0]
        nan_b = np.frombuffer(np.uint64(0x7FF8000000000002).tobytes(),
                              dtype=np.float64)[0]
        g = np.random.default_rng(12)
        x = g.choice(np.array([-0.0, 0.0, nan_a, nan_b, 1.0]), 200)
        final, rep = _sort_file(tmp_path, x, 32, block_elements=7)
        assert rep.runs == 7 and rep.blocks > rep.runs
        assert final.read_all().tobytes() == np.sort(x, kind="stable").tobytes()
