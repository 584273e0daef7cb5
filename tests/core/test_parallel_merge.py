"""Tests for Algorithm 1 across backends, against the reference kernels."""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import validation
from repro.backends import (
    SerialBackend,
    SimulatedBackend,
    ThreadBackend,
)
from repro.core import sequential
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import merge, merge_partition, parallel_merge
from repro.core.segmented_merge import segmented_parallel_merge
from repro.core.sequential import KERNELS
from repro.errors import InputError, NotSortedError
from repro.execution.engine import merge_segment
from repro.obs import MetricsRegistry
from repro.validation import check_sorted
from repro.workloads.adversarial import ADVERSARIAL_PAIRS

from ..conftest import reference_merge

BACKEND_NAMES = ["serial", "threads", "simulated"]


class TestParallelMergeCorrectness:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_random(self, backend, p, sorted_pair_random):
        a, b = sorted_pair_random
        out = parallel_merge(a, b, p, backend=backend)
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_adversarial(self, name):
        a, b = ADVERSARIAL_PAIRS[name](64)
        out = parallel_merge(a, b, 8, backend="serial")
        np.testing.assert_array_equal(out, reference_merge(a, b))

    @pytest.mark.parametrize("kernel", ["two_pointer", "galloping", "vectorized"])
    def test_kernels(self, kernel):
        """Every reference kernel agrees with the segmented merge."""
        g = np.random.default_rng(2)
        a = np.sort(g.integers(0, 50, 41))
        b = np.sort(g.integers(0, 50, 59))
        out = parallel_merge(a, b, 4, backend="serial")
        np.testing.assert_array_equal(out, KERNELS[kernel](a, b))

    def test_p_larger_than_n(self):
        out = parallel_merge(np.array([3]), np.array([1]), 10, backend="serial")
        np.testing.assert_array_equal(out, [1, 3])

    def test_empty_inputs(self):
        out = parallel_merge(
            np.array([], dtype=int), np.array([], dtype=int), 4, backend="serial"
        )
        assert len(out) == 0

    def test_lists_accepted(self):
        out = parallel_merge([1, 4], [2, 3], 2, backend="serial")
        np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_input_not_mutated(self):
        a = np.array([1, 5, 9])
        b = np.array([2, 6])
        a0, b0 = a.copy(), b.copy()
        parallel_merge(a, b, 3, backend="serial")
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


class TestValidationAndErrors:
    def test_unsorted_raises(self):
        with pytest.raises(NotSortedError):
            parallel_merge(np.array([3, 1]), np.array([2]), 2, backend="serial")

    def test_unsorted_skipped_with_check_false(self):
        # check=False is the caller's contract; result is garbage-in/out
        out = parallel_merge(
            np.array([3, 1]), np.array([2]), 1, backend="serial", check=False
        )
        assert len(out) == 3

    def test_bad_p(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), -1, backend="serial")

    def test_bad_backend_name(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), 1, backend="warp-drive")


class TestBackendInstances:
    def test_reusable_serial_instance(self):
        be = SerialBackend()
        a = np.array([1, 3])
        b = np.array([2, 4])
        for _ in range(3):
            out = parallel_merge(a, b, 2, backend=be)
            np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_thread_backend_context_manager(self):
        with ThreadBackend(max_workers=2) as be:
            out = parallel_merge(np.array([1, 3]), np.array([2]), 2, backend=be)
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_simulated_backend_records_batch(self):
        be = SimulatedBackend()
        parallel_merge(np.arange(100), np.arange(100), 4, backend=be)
        assert be.last_batch is not None
        assert len(be.last_batch.task_times_s) == 4
        assert be.last_batch.total_work_s >= be.last_batch.parallel_time_s


class TestMergePartition:
    def test_precomputed_partition(self):
        a = np.arange(0, 20, 2)
        b = np.arange(1, 21, 2)
        part = partition_merge_path(a, b, 4)
        out = merge_partition(a, b, part, backend=SerialBackend())
        np.testing.assert_array_equal(out, np.arange(20))

    def test_stats_flow_through(self):
        reg = MetricsRegistry()
        a = np.arange(50)
        b = np.arange(50)
        parallel_merge(a, b, 4, backend="serial", metrics=reg)
        assert reg.value("merge.moves") == 100
        assert reg.value("merge.comparisons") > 0


class TestTopLevelMerge:
    def test_default_sequential(self):
        np.testing.assert_array_equal(merge([1, 3], [2]), [1, 2, 3])

    def test_parallel_opt_in(self):
        out = merge([1, 3, 5], [2, 4, 6], p=3, backend="serial")
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5, 6])

    def test_stability_ties(self):
        # values equal: A's elements must occupy the earlier slots;
        # detectable via dtype difference (int A, float B promoted).
        out = merge(np.array([5, 5]), np.array([5.0]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])

    def test_default_runs_one_segment(self, monkeypatch):
        pm = importlib.import_module("repro.core.parallel_merge")

        def no_search(*args, **kwargs):
            raise AssertionError("merge(a, b) must not cut the merge path")

        monkeypatch.setattr(pm, "partition_merge_path", no_search)
        a, b = np.arange(0, 10**5, 2), np.arange(1, 10**5, 2)
        np.testing.assert_array_equal(merge(a, b), np.arange(10**5))
        with pytest.raises(NotSortedError):
            merge(b[::-1], a)
        with pytest.raises(AssertionError, match="cut the merge path"):
            merge(a, b, backend="serial")  # the REM6PCT reference


class TestOversubscription:
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_same_result_any_granularity(self, factor):
        g = np.random.default_rng(factor)
        a = np.sort(g.integers(0, 99, 73))
        b = np.sort(g.integers(0, 99, 61))
        out = parallel_merge(
            a, b, 3, backend="serial", oversubscribe=factor
        )
        np.testing.assert_array_equal(out, reference_merge(a, b))

    def test_segment_count_scales(self):
        a = np.arange(100)
        b = np.arange(100)
        reg = MetricsRegistry()
        parallel_merge(a, b, 2, backend="serial", oversubscribe=4,
                       metrics=reg)
        assert reg.value("merge.segments") == 8
        assert reg.value("merge.moves") == 200

    def test_validation(self):
        with pytest.raises(InputError):
            parallel_merge(np.array([1]), np.array([2]), 2,
                           backend="serial", oversubscribe=0)


def _stable_sort_bytes(a: np.ndarray, b: np.ndarray) -> bytes:
    return np.sort(np.concatenate([a, b]), kind="stable").tobytes()


def _bool_bytes(n: int, g: np.random.Generator) -> np.ndarray:
    """A bool array holding bytes 0-3 (every nonzero byte is true)."""
    return g.integers(0, 4, n).astype(np.uint8).view(np.bool_)


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bool_bytes_merge_like_np_sort(backend, p):
    """Bools are cut, checked and merged as their bytes, the order
    ``np.sort`` gives them, so a true byte 2 or 3 lands where the stable
    sort of the concatenation puts it; SPM cuts its blocks the same way.
    Both refuse the process pool: in-memory merges run in-process."""
    x = _bool_bytes(300, np.random.default_rng(p))
    a, b = np.sort(x[:100], kind="stable"), np.sort(x[100:], kind="stable")
    if backend == "processes":
        with pytest.raises(InputError, match="run in-process"):
            parallel_merge(a, b, p, backend=backend)
        with pytest.raises(InputError, match="run in-process"):
            segmented_parallel_merge(a, b, p, cache_elements=60,
                                     backend=backend)
        return
    out = parallel_merge(a, b, p, backend=backend)
    assert out.dtype == np.bool_
    assert out.tobytes() == _stable_sort_bytes(a, b)
    assert merge(a, b).tobytes() == _stable_sort_bytes(a, b)
    spm = segmented_parallel_merge(a, b, p, cache_elements=60,
                                   backend=backend)
    assert spm.dtype == np.bool_
    assert spm.tobytes() == _stable_sort_bytes(a, b)


def test_nat_before_a_date_at_a_cut_is_accepted():
    """Only floats take the NaN-last rule: a NaT followed by a date
    passes ``check_sorted``, so the pair across a segment's right cut
    must pass too, wherever the NaT sits and whatever ``p`` is.  The
    search steers the path around a NaT in ``a`` unless ``b`` is empty,
    so that is where the cuts land on the NaT."""
    b = np.arange(0, 0).astype("M8[D]")
    straddled = 0
    for k in range(99):
        a = np.arange(100).astype("M8[D]")
        a[k] = np.datetime64("NaT")
        check_sorted(a)
        seg = np.empty(k + 1, dtype=a.dtype)
        assert merge_segment(seg, a, b, 0, k + 1, 0, 0, True) == (None, None)
        for p in (2, 3, 4, 5):
            part = partition_merge_path(a, b, p, check=False)
            straddled += any(s.a_end == k + 1 for s in part.segments[:-1])
            out = parallel_merge(a, b, p, backend="serial")
            assert out.tobytes() == a.tobytes()
    assert straddled


@pytest.fixture(scope="class")
def tiny_blocks():
    """Serial and thread backends under sub-blocks of 8 bytes (one
    int64, eight int8 elements), so a few dozen elements cross many
    sub-block cuts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequential, "SUB_BLOCK_BYTES", 8)
        backends = {
            "serial": SerialBackend(),
            "threads": ThreadBackend(max_workers=3),
        }
        try:
            yield backends
        finally:
            for be in backends.values():
                be.close()


def _dtype_sample(dtype, n: int, g: np.random.Generator) -> np.ndarray:
    dt = np.dtype(dtype)
    if dt == np.bool_:
        return np.sort(_bool_bytes(n, g), kind="stable")
    if dt.kind == "f":
        body = g.normal(size=n).astype(dt)
        body[g.random(n) < 0.2] = 0.0
        body[g.random(n) < 0.2] = -0.0
        specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf], dtype=dt)
        return np.sort(np.concatenate([body, np.repeat(specials, 3)]),
                       kind="stable")
    info = np.iinfo(dt)
    return np.sort(g.integers(info.min, info.max, size=n, dtype=dt,
                              endpoint=True))


#: The adversarial shapes of the cache-blocked kernel, scaled down.
SHAPES = {
    "disjoint-ranges": lambda g: (np.arange(300), np.arange(300, 500)),
    "four-values": lambda g: (np.sort(g.integers(0, 4, 300)),
                              np.sort(g.integers(0, 4, 200))),
    "long-against-short": lambda g: (np.sort(g.integers(0, 10**6, 600)),
                                     np.sort(g.integers(0, 10**6, 5))),
    "clustered": lambda g: (
        np.sort(np.concatenate([g.integers(0, 10, 150),
                                g.integers(1000, 1010, 150)])),
        np.sort(np.concatenate([g.integers(500, 510, 100),
                                g.integers(2000, 2010, 100)]))),
    "float64": lambda g: (np.sort(g.random(300)), np.sort(g.random(200))),
}


def _first_descent(a: np.ndarray, b: np.ndarray):
    """What the up-front ``check_sorted`` of A, then B, raises."""
    try:
        check_sorted(a, "A")
        check_sorted(b, "B")
    except NotSortedError as exc:
        return exc.name, exc.index
    return None


@st.composite
def _one_descent(draw, arr: np.ndarray, cuts: list[int]) -> np.ndarray:
    """``arr`` unchanged, or with one descent: at a random index, or
    next to a segment cut (sub-blocks of one element cut everywhere)."""
    where = draw(st.sampled_from(["none", "random", "cut"]))
    if where == "none" or len(arr) < 2:
        return arr
    near = [k for c in cuts for k in (c - 1, c) if 0 <= k < len(arr) - 1]
    if where == "cut" and near:
        k = draw(st.sampled_from(near))
    else:
        k = draw(st.integers(0, len(arr) - 2))
    arr = arr.copy()
    if arr.dtype.kind == "f" and draw(st.booleans()):
        arr[k] = np.nan  # NaN sorts last: a descent even though > is false
        if np.isnan(arr[k + 1]):
            arr[k + 1] = 0.0
        return arr
    arr[k + 1] = arr[k] - 1
    return arr


@st.composite
def _merge_inputs(draw):
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    values = st.lists(st.integers(-20, 20), max_size=60)
    a = np.sort(np.array(draw(values), dtype=dtype))
    b = np.sort(np.array(draw(values), dtype=dtype))
    p = draw(st.integers(1, 5))
    part = partition_merge_path(a, b, p)
    a = draw(_one_descent(a, [s.a_end for s in part.segments]))
    b = draw(_one_descent(b, [s.b_end for s in part.segments]))
    return a, b, p


class TestSubBlockedSegments:
    """Segments cross many sub-block cuts on every backend: outputs stay
    bit-identical to the stable sort, and the validation that moved into
    the tasks raises exactly what the up-front scan raised."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
        np.float16, np.float32, np.float64, np.bool_,
    ])
    def test_dtype_matrix_bit_identical(self, tiny_blocks, backend, dtype):
        g = np.random.default_rng(7)
        a, b = _dtype_sample(dtype, 300, g), _dtype_sample(dtype, 200, g)
        if backend == "processes":  # in-memory merges run in-process
            with pytest.raises(InputError, match="run in-process"):
                parallel_merge(a, b, 2, backend=backend)
            return
        for p in (2, 3):
            out = parallel_merge(a, b, p, backend=tiny_blocks[backend])
            assert out.dtype == np.promote_types(a.dtype, b.dtype)
            assert out.tobytes() == _stable_sort_bytes(a, b)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_adversarial_shapes_bit_identical(self, tiny_blocks, backend,
                                              shape):
        a, b = SHAPES[shape](np.random.default_rng(11))
        for p in (1, 2, 4):
            out = parallel_merge(a, b, p, backend=tiny_blocks[backend])
            assert out.tobytes() == _stable_sort_bytes(a, b)
            out = parallel_merge(b, a, p, backend=tiny_blocks[backend])
            assert out.tobytes() == _stable_sort_bytes(b, a)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        inputs=_merge_inputs(),
        backend=st.sampled_from(["serial", "threads"]),
        resilience=st.booleans(),
        inline=st.booleans(),
    )
    def test_in_task_validation_matches_up_front_scan(
        self, tiny_blocks, inputs, backend, resilience, inline
    ):
        a, b, p = inputs
        expected = _first_descent(a, b)
        try:
            if inline:  # one merge_into task, no diagonal search
                out = merge(a, b)
            else:
                out = parallel_merge(a, b, p, backend=tiny_blocks[backend],
                                     resilience=resilience)
        except NotSortedError as exc:
            assert (exc.name, exc.index) == expected
        else:
            assert expected is None
            assert out.tobytes() == _stable_sort_bytes(a, b)


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_validation_scans_only_sub_blocks(monkeypatch, backend):
    """The order check runs inside the tasks on cache-sized slices: no
    ``first_disorder`` call ever sees more than one sub-block of an
    input plus the one element past it, so a serial whole-array scan
    cannot creep back in front of the tasks."""
    seen = []
    real = validation.first_disorder

    def spy(arr):
        seen.append(len(arr))
        return real(arr)

    for module in (validation, sequential):
        monkeypatch.setattr(module, "first_disorder", spy)
    n = 1 << 20
    a = np.arange(0, 2 * n, 2, dtype=np.int32)
    b = np.arange(1, 2 * n, 2, dtype=np.int32)
    bound = sequential.SUB_BLOCK_BYTES // a.itemsize + 1
    out = parallel_merge(a, b, 2, backend=backend, check=True)
    np.testing.assert_array_equal(out, np.arange(2 * n, dtype=np.int32))
    assert seen and max(seen) <= bound
    seen.clear()
    a[n - 10] = -1
    with pytest.raises(NotSortedError) as exc:
        parallel_merge(a, b, 2, backend=backend, check=True)
    assert (exc.value.name, exc.value.index) == ("A", n - 11)
    assert seen and max(seen) <= bound
