"""Tests for the in-segment merge kernels."""

import numpy as np
import pytest

from repro.core import sequential
from repro.core.parallel_merge import parallel_merge
from repro.core.sequential import (
    KERNELS,
    merge_galloping,
    merge_into,
    merge_keys,
    merge_two_pointer,
    merge_vectorized,
    result_dtype,
    sorted_as,
)
from repro.errors import DTypeMismatchError, InputError, NotSortedError
from repro.obs import MetricsRegistry
from repro.types import MergeStats
from repro.validation import first_disorder
from repro.workloads.adversarial import ADVERSARIAL_PAIRS

from ..conftest import reference_merge

ALL_KERNELS = sorted(KERNELS)


class TestKernelCorrectness:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_random_pairs(self, kernel, sorted_pair_random):
        a, b = sorted_pair_random
        out = KERNELS[kernel](a, b)
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_adversarial_pairs(self, kernel, name):
        a, b = ADVERSARIAL_PAIRS[name](50)
        out = KERNELS[kernel](a, b)
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_empty_a(self, kernel):
        out = KERNELS[kernel](np.array([], dtype=int), np.array([1, 2]))
        np.testing.assert_array_equal(out, [1, 2])

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_empty_b(self, kernel):
        out = KERNELS[kernel](np.array([1, 2]), np.array([], dtype=int))
        np.testing.assert_array_equal(out, [1, 2])

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_both_empty(self, kernel):
        out = KERNELS[kernel](np.array([], dtype=int), np.array([], dtype=int))
        assert len(out) == 0

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_floats(self, kernel):
        g = np.random.default_rng(5)
        a = np.sort(g.random(40))
        b = np.sort(g.random(25))
        np.testing.assert_array_equal(
            KERNELS[kernel](a, b), reference_merge(a, b)
        )

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_rejects_unsorted(self, kernel):
        with pytest.raises(NotSortedError):
            KERNELS[kernel](np.array([2, 1]), np.array([1, 2]))

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_rejects_2d(self, kernel):
        with pytest.raises(InputError):
            KERNELS[kernel](np.zeros((2, 2)), np.array([1.0]))


class TestStability:
    """Ties must come out A-first.  Verified by merging index-tagged
    values through each kernel (via argsort-free positional check)."""

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_ties_a_before_b(self, kernel):
        # Values chosen so every element ties across arrays.
        a = np.array([5, 5, 7])
        b = np.array([5, 7, 7])
        out = KERNELS[kernel](a, b)
        np.testing.assert_array_equal(out, [5, 5, 5, 7, 7, 7])
        # Positional check through the rank-placement identity the
        # keyed merge uses: A's 5s land at 0,1; B's 5 at 2; A's 7 at 3;
        # B's 7s at 4,5.
        pos_a = np.arange(3) + np.searchsorted(b, a, side="left")
        pos_b = np.arange(3) + np.searchsorted(a, b, side="right")
        assert sorted(list(pos_a) + list(pos_b)) == list(range(6))
        assert list(pos_a) == [0, 1, 3]

    def test_vectorized_positions_tile_output(self, sorted_pair_random):
        a, b = sorted_pair_random
        if len(a) == 0 or len(b) == 0:
            pytest.skip("tiling check needs both non-empty")
        pos_a = np.arange(len(a)) + np.searchsorted(b, a, side="left")
        pos_b = np.arange(len(b)) + np.searchsorted(a, b, side="right")
        assert sorted(list(pos_a) + list(pos_b)) == list(range(len(a) + len(b)))


class TestStatsCounting:
    def test_two_pointer_counts(self):
        a = np.array([1, 3, 5])
        b = np.array([2, 4])
        stats = MergeStats()
        merge_two_pointer(a, b, stats=stats)
        assert stats.moves == 5
        assert 0 < stats.comparisons <= 5

    def test_two_pointer_tail_copy_no_comparisons(self):
        a = np.array([1, 2])
        b = np.array([10, 11, 12])
        stats = MergeStats()
        merge_two_pointer(a, b, stats=stats)
        assert stats.comparisons == 2  # only while both live

    def test_galloping_fewer_comparisons_on_runs(self):
        a = np.arange(0, 1000)
        b = np.arange(1000, 2000)
        s_tp, s_gal = MergeStats(), MergeStats()
        merge_two_pointer(a, b, stats=s_tp)
        merge_galloping(a, b, stats=s_gal)
        assert s_gal.comparisons < s_tp.comparisons / 10


class TestGalloping:
    def test_min_gallop_validation(self):
        with pytest.raises(InputError):
            merge_galloping(np.array([1]), np.array([2]), min_gallop=0)

    @pytest.mark.parametrize("min_gallop", [1, 2, 8])
    def test_min_gallop_values_same_output(self, min_gallop):
        g = np.random.default_rng(7)
        a = np.sort(g.integers(0, 30, 70))
        b = np.sort(g.integers(0, 30, 50))
        np.testing.assert_array_equal(
            merge_galloping(a, b, min_gallop=min_gallop), reference_merge(a, b)
        )


class TestMergeInto:
    def test_writes_into_slice(self):
        out = np.zeros(6, dtype=int)
        merge_into(out[1:5], np.array([1, 3]), np.array([2, 4]))
        np.testing.assert_array_equal(out, [0, 1, 2, 3, 4, 0])

    def test_length_mismatch_raises(self):
        with pytest.raises(InputError):
            merge_into(np.zeros(3), np.array([1]), np.array([2]))

    def test_unknown_kernel_raises(self):
        """``merge_into`` runs the one linear kernel: it takes no kernel
        name at all, so every name is unknown to it."""
        for name in ("nope", *ALL_KERNELS):
            with pytest.raises(TypeError):
                merge_into(np.zeros(2), np.array([1]), np.array([2]),
                           kernel=name)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_all_kernels_equal(self, kernel):
        """The production kernel and every reference kernel agree."""
        g = np.random.default_rng(11)
        a = np.sort(g.integers(0, 90, 33))
        b = np.sort(g.integers(0, 90, 44))
        out = np.empty(77, dtype=np.int64)
        merge_into(out, a, b)
        np.testing.assert_array_equal(out, KERNELS[kernel](a, b))
        np.testing.assert_array_equal(out, reference_merge(a, b))

    def test_vectorized_into_empty_sides(self):
        out = np.empty(2, dtype=int)
        merge_into(out, np.array([], dtype=int), np.array([1, 2]))
        np.testing.assert_array_equal(out, [1, 2])
        merge_into(out, np.array([1, 2]), np.array([], dtype=int))
        np.testing.assert_array_equal(out, [1, 2])


class TestDTypes:
    def test_promotion_int_float(self):
        out = merge_vectorized(np.array([1, 3]), np.array([2.5]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.5, 3.0])

    def test_result_dtype_helper(self):
        assert result_dtype(
            np.array([1], dtype=np.int32), np.array([1], dtype=np.int64)
        ) == np.int64

    def test_incomparable_dtypes_raise(self):
        with pytest.raises(DTypeMismatchError):
            merge_vectorized(np.array([1, 2]), np.array(["a", "b"]))

    @pytest.mark.parametrize("fn", [merge_vectorized, KERNELS["vectorized"]],
                             ids=["merge_vectorized", "KERNELS"])
    def test_bool_order_is_checked_on_the_bytes(self, fn):
        """Two bools merge as their bytes, so a true 2 before a true 1
        is out of order: the kernel raises what ``parallel_merge``
        raises."""
        a = np.array([2, 1], np.uint8).view(np.bool_)
        b = np.array([], np.bool_)
        for merge_fn in (fn, lambda a, b: parallel_merge(a, b, 1)):
            with pytest.raises(NotSortedError) as exc:
                merge_fn(a, b)
            assert (exc.value.name, exc.value.index) == ("A", 0)


def _assert_bits_equal(out: np.ndarray, ref: np.ndarray) -> None:
    assert out.dtype == ref.dtype
    assert np.ascontiguousarray(out).tobytes() == ref.tobytes()


def _sorted_sample(dtype, n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    if dt.kind == "f":
        specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf], dtype=dt)
        body = g.normal(size=n).astype(dt)
        body[g.random(n) < 0.2] = 0.0
        body[g.random(n) < 0.2] = -0.0
        return np.sort(np.concatenate([body, np.repeat(specials, 3)]),
                       kind="stable")
    info = np.iinfo(dt)
    return np.sort(g.integers(info.min, info.max, size=n, dtype=dt,
                              endpoint=True))


class TestLinearKernelSemantics:
    """The production kernel equals a stable sort of ``[A | B]`` bit for
    bit: dtypes, NaN, signed zeros, infinities, ties and odd outputs."""

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
        np.float16, np.float32, np.float64,
    ])
    def test_bit_identical_per_dtype(self, dtype):
        a = _sorted_sample(dtype, 300, 1)
        b = _sorted_sample(dtype, 200, 2)
        out = np.empty(len(a) + len(b), dtype=result_dtype(a, b))
        merge_into(out, a, b)
        _assert_bits_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("da,db", [
        (np.int32, np.int64), (np.int64, np.int32),
        (np.int64, np.float64), (np.float32, np.int16),
    ])
    def test_mixed_dtype_pairs(self, da, db):
        a = _sorted_sample(da, 150, 3)
        b = _sorted_sample(db, 250, 4)
        out = merge_vectorized(a, b)
        _assert_bits_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("la,lb", [(0, 0), (0, 7), (7, 0), (1, 1)])
    def test_empty_and_single_sides(self, la, lb):
        a = np.arange(la, dtype=np.int64)
        b = np.arange(lb, dtype=np.int64) - 3
        out = np.full(la + lb, -99, dtype=np.int64)
        merge_into(out, a, b)
        _assert_bits_equal(out, reference_merge(a, b))

    def test_duplicate_heavy(self):
        g = np.random.default_rng(8)
        a = np.sort(g.integers(0, 3, 5000))
        b = np.sort(g.integers(0, 3, 4000))
        _assert_bits_equal(merge_vectorized(a, b), reference_merge(a, b))

    def test_non_contiguous_out(self):
        a = _sorted_sample(np.float64, 100, 5)
        b = _sorted_sample(np.float64, 80, 6)
        n = len(a) + len(b)
        buf = np.full(2 * n, 7.0)
        merge_into(buf[::2], a, b)
        _assert_bits_equal(buf[::2], reference_merge(a, b))
        assert np.all(buf[1::2] == 7.0)

    def test_memmap_out(self, tmp_path):
        a = _sorted_sample(np.int32, 1000, 7)
        b = _sorted_sample(np.int32, 600, 8)
        out = np.memmap(tmp_path / "out.bin", dtype=np.int32, mode="w+",
                        shape=(len(a) + len(b),))
        merge_into(out, a, b)
        out.flush()
        _assert_bits_equal(np.asarray(out), reference_merge(a, b))

    def test_shared_memory_out(self):
        from multiprocessing import shared_memory

        a = _sorted_sample(np.int64, 500, 9)
        b = _sorted_sample(np.int64, 700, 10)
        n = len(a) + len(b)
        shm = shared_memory.SharedMemory(create=True, size=n * 8)
        try:
            out = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
            merge_into(out, a, b)
            _assert_bits_equal(out, reference_merge(a, b))
            del out
        finally:
            shm.close()
            shm.unlink()

    def test_peak_allocation_at_most_smaller_run(self):
        """The old rank-placement kernel allocated two 8-byte position
        arrays per element; the copy-and-merge kernel's only scratch is
        the stable sort's merge buffer, at most the smaller run.  NumPy
        allocates that buffer with plain malloc, which tracemalloc does
        not see, so a child process measures its peak resident set
        (VmHWM, reset just before the merge) instead."""
        import os
        import subprocess
        import sys

        import repro

        if not os.path.exists("/proc/self/clear_refs"):
            pytest.skip("needs Linux /proc peak-RSS reset")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = f"""
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core.sequential import merge_into

def peak():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) * 1024 for l in f if l.startswith("VmHWM:"))

g = np.random.default_rng(12)
a = np.sort(g.integers(0, 1 << 40, 1 << 21))
b = np.sort(g.integers(0, 1 << 40, 1 << 19))
out = np.empty(len(a) + len(b), dtype=np.int64)
out[:len(a)] = a  # the copy-only baseline: every output page resident
out[len(a):] = b
with open("/proc/self/clear_refs", "w") as f:
    f.write("5")
before = peak()
merge_into(out, a, b)
assert (out[1:] >= out[:-1]).all()
print(peak() - before, len(b) * out.itemsize)
"""
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        grown, smaller_run = map(int, proc.stdout.split())
        # a full |A|+|B| scratch buffer would grow the peak by 5x this
        assert grown <= 1.25 * smaller_run

    def test_comparisons_are_linear(self):
        """The plan-derived counts of one segment are merge_into's bound."""
        reg = MetricsRegistry()
        parallel_merge(np.arange(400), np.arange(300), 1, backend="serial",
                       metrics=reg)
        assert reg.value("merge.comparisons") == 699
        assert reg.value("merge.moves") == 700
        one_side = MetricsRegistry()
        parallel_merge(np.arange(5), np.array([], dtype=np.int64), 1,
                       backend="serial", metrics=one_side)
        assert one_side.value("merge.comparisons") == 0
        assert one_side.value("merge.moves") == 5


class TestKernelAliasing:
    def test_exact_in_place_layout_is_allowed(self):
        buf = np.array([1, 4, 9, 2, 3, 10])
        merge_into(buf, buf[:3], buf[3:])
        np.testing.assert_array_equal(buf, [1, 2, 3, 4, 9, 10])

    def test_out_overlapping_a_raises(self):
        buf = np.arange(10)
        with pytest.raises(InputError, match="overlaps input A"):
            merge_into(buf[2:8], buf[:3], np.array([1, 2, 3]))

    def test_out_overlapping_b_raises(self):
        buf = np.arange(10)
        with pytest.raises(InputError, match="overlaps input B"):
            merge_into(buf[:6], np.array([0, 1, 2]), buf[4:7])

    def test_swapped_layout_raises(self):
        buf = np.array([2, 3, 1, 4])
        with pytest.raises(InputError):
            merge_into(buf, buf[2:], buf[:2])
        np.testing.assert_array_equal(buf, [2, 3, 1, 4])


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Sub-blocks of 16 bytes: a few hundred elements cross dozens of
    sub-block cuts (2 int64, 16 int8 elements a sub-block)."""
    monkeypatch.setattr(sequential, "SUB_BLOCK_BYTES", 16)


def _bool_bytes(n: int, seed: int) -> np.ndarray:
    """A byte-sorted bool array holding bytes 0-3, as ``np.sort`` orders it."""
    g = np.random.default_rng(seed)
    return np.sort(g.integers(0, 4, n).astype(np.uint8).view(np.bool_),
                   kind="stable")


class TestSubBlocks:
    """``merge_into`` walks its output in sub-blocks cut on the merge
    path; the result is the stable sort of ``[A | B]`` bit for bit, and
    ``check`` reports the first descent of each side."""

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
        np.float16, np.float32, np.float64, np.bool_,
    ])
    def test_bit_identical_across_sub_blocks(self, tiny_blocks, dtype):
        """Bools with bytes 0-3 go in as their merge keys, as every
        entry point passes them."""
        if dtype is np.bool_:
            a, b = _bool_bytes(300, 1), _bool_bytes(200, 2)
        else:
            a, b = _sorted_sample(dtype, 300, 1), _sorted_sample(dtype, 200, 2)
        ka, kb = merge_keys(a, b)
        out = np.empty(len(a) + len(b), dtype=result_dtype(ka, kb))
        assert merge_into(out, ka, kb, check=True) == (None, None)
        expected = np.sort(np.concatenate([a, b]), kind="stable")
        _assert_bits_equal(sorted_as(out, a), expected)
        _assert_bits_equal(merge_vectorized(a, b), expected)

    def test_default_sub_block_size(self):
        """Real 256 KiB sub-blocks: 2 x 200,000 int64 is 13 of them."""
        g = np.random.default_rng(3)
        a = np.sort(g.integers(0, 1000, 200_000))
        b = np.sort(g.integers(0, 1000, 200_000))
        assert len(a) + len(b) > (sequential.WHOLE_SORT_SUB_BLOCKS
                                  * sequential.SUB_BLOCK_BYTES // 8)
        out = np.empty(len(a) + len(b), dtype=np.int64)
        assert merge_into(out, a, b, check=True) == (None, None)
        _assert_bits_equal(out, reference_merge(a, b))

    def test_small_calls_are_one_sort(self, tiny_blocks, monkeypatch):
        def no_cuts(*args, **kwargs):
            raise AssertionError("a call of few sub-blocks must not cut")

        monkeypatch.setattr(sequential, "diagonal_intersections_vectorized",
                            no_cuts)
        n = 2 * sequential.WHOLE_SORT_SUB_BLOCKS  # two int64 a sub-block
        a, b = np.arange(0, n, 2), np.arange(1, n, 2)
        out = np.empty(n, dtype=np.int64)
        merge_into(out, a, b)
        np.testing.assert_array_equal(out, np.arange(n))

    def test_in_place_layout_is_one_sort(self, tiny_blocks):
        buf = np.concatenate([np.arange(0, 200, 2), np.arange(1, 200, 2)])
        merge_into(buf, buf[:100], buf[100:])
        np.testing.assert_array_equal(buf, np.arange(200))

    @pytest.mark.parametrize("seed", range(8))
    def test_unsorted_input_reports_first_descents(self, tiny_blocks, seed):
        """Unsorted input gives non-monotone cuts; clamped, they still
        tile both inputs, so the reported descents are the first ones
        and nothing raises."""
        g = np.random.default_rng(seed)
        a = g.integers(0, 50, int(g.integers(20, 200)))
        b = g.integers(0, 50, int(g.integers(20, 200)))
        out = np.empty(len(a) + len(b), dtype=np.int64)
        i, j = merge_into(out, a, b, check=True)
        assert i == first_disorder(a)
        if i is None:
            assert j == first_disorder(b)
        merge_into(out, a, b)  # unchecked: garbage out, but no error

    def test_b_descent_keeps_scanning_a(self, tiny_blocks):
        a = np.arange(200)
        a[180] = -1  # descent at 179, many sub-blocks after B's
        b = np.arange(200)
        b[3] = -1  # descent at 2, in the first sub-block
        out = np.empty(400, dtype=np.int64)
        assert merge_into(out, a, b, check=True)[0] == 179
        assert merge_into(out, np.arange(200), b, check=True) == (None, 2)

    def test_descent_on_a_sub_block_cut(self, tiny_blocks):
        """A descent between the last element of one sub-block's slice
        and the first of the next is found: each scan reads one element
        past its slice."""
        a, b = np.arange(0, 200, 2), np.arange(1, 200, 2)
        for k in range(1, 99):
            bad = a.copy()
            bad[k + 1] = bad[k] - 1
            out = np.empty(200, dtype=np.int64)
            assert merge_into(out, bad, b, check=True)[0] == k
