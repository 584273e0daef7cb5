"""The merge leaves' sort kind and their trim to the runs' overlap.

Every merge leaf (:func:`~repro.core.sequential.merge_into` on its
whole-sort path and in each sub-block of its walk, and
:func:`~repro.core.sequential.merge_runs_into`) sorts an integer dtype
with the kind :func:`~repro.core.sequential.merge_kind` measured for this
host, and sorts only where the two runs overlap.  Neither may change a
byte: whichever kind runs, the output is
``np.sort(np.concatenate([a, b]), kind="stable")``.  The properties here
force each kind in turn, so the branch this host does not take is
checked too.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sequential
from repro.core.sequential import (
    _sort_runs,
    merge_into,
    merge_keys,
    merge_kind,
    merge_runs_into,
    merge_vectorized,
    result_dtype,
    sorted_as,
)
from repro.validation import first_disorder

KINDS = ("stable", "quicksort")
INT_DTYPES = ("int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64")
PATHS = ("whole", "walk", "in_place")


def _force(mp: pytest.MonkeyPatch, kind: str) -> None:
    mp.setattr(sequential, "merge_kind", lambda dtype: kind)


def _oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([a, b]), kind="stable")


def _assert_bytes(out: np.ndarray, ref: np.ndarray) -> None:
    assert out.dtype == ref.dtype
    assert np.ascontiguousarray(out).tobytes() == ref.tobytes()


@st.composite
def int_runs(draw):
    """Two sorted runs of one integer dtype, native or byte-swapped,
    drawn from the dtype's extremes and a small pool of values (heavy
    duplicates: an unstable sort reorders ties)."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    value = st.integers(int(info.min), int(info.max))
    extremes = st.sampled_from([int(info.min), int(info.min) + 1,
                                int(info.max) - 1, int(info.max)])
    pool = draw(st.lists(value | extremes, min_size=1, max_size=5))
    element = st.sampled_from(pool) | extremes | value
    a, b = (np.sort(np.array(draw(st.lists(element, max_size=80)),
                             dtype=dtype))
            for _ in range(2))
    if draw(st.booleans()):
        swapped = dtype.newbyteorder()
        a, b = a.astype(swapped), b.astype(swapped)
    return a, b


@st.composite
def bool_runs(draw):
    """Two byte-sorted bool runs holding bytes 0-3 (2 and 3 are true)."""
    def run():
        raw = draw(st.lists(st.integers(0, 3), max_size=80))
        return np.sort(np.array(raw, np.uint8)).view(np.bool_)
    return run(), run()


def _merge(a: np.ndarray, b: np.ndarray, path: str) -> np.ndarray:
    """Merge ``a`` and ``b`` with :func:`merge_into` on one of its paths:
    one whole sort, the sub-block walk (16-byte sub-blocks, so a few
    dozen elements cross many cuts), or the in-place ``[A | B]``
    layout in ``a``'s own dtype and byte order."""
    ka, kb = merge_keys(a, b)
    with pytest.MonkeyPatch.context() as mp:
        if path == "walk":
            mp.setattr(sequential, "SUB_BLOCK_BYTES", 16)
        if path == "in_place":
            out = np.concatenate([ka, kb]).astype(ka.dtype)
            assert merge_into(out, out[:len(ka)], out[len(ka):],
                              check=True) == (None, None)
        else:
            out = np.empty(len(a) + len(b), dtype=result_dtype(ka, kb))
            assert merge_into(out, ka, kb, check=True) == (None, None)
    return sorted_as(out, a) if ka is not a else out


class TestEveryKindGivesTheStableBytes:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60, deadline=None)
    @given(runs=int_runs())
    def test_integers(self, kind, path, runs):
        a, b = runs
        with pytest.MonkeyPatch.context() as mp:
            _force(mp, kind)
            out = _merge(a, b, path)
        ref = _oracle(a, b)
        if path == "in_place":
            ref = ref.astype(a.dtype)
        _assert_bytes(out, ref)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(runs=bool_runs())
    def test_bool_keys(self, kind, path, runs):
        a, b = runs
        with pytest.MonkeyPatch.context() as mp:
            _force(mp, kind)
            out = _merge(a, b, path)
        _assert_bytes(out, _oracle(a, b))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(runs=int_runs(), k=st.integers(1, 6))
    def test_k_way_leaf(self, kind, runs, k):
        x = np.concatenate(runs)
        parts = [np.sort(part) for part in np.array_split(x, k)]
        out = np.empty(len(x), dtype=result_dtype(x, x))
        with pytest.MonkeyPatch.context() as mp:
            _force(mp, kind)
            merge_runs_into(out, parts)
        _assert_bytes(out, np.sort(np.concatenate(parts), kind="stable"))


@pytest.fixture
def fresh_kinds():
    """A clean per-process answer before and after the test."""
    merge_kind.cache_clear()
    sequential._probed_kind.cache_clear()
    yield
    merge_kind.cache_clear()
    sequential._probed_kind.cache_clear()


class TestTheKindDecision:
    @pytest.mark.parametrize("stable_s, quick_s, kind", [
        (1.0, 0.5, "quicksort"),
        (1.0, 0.84, "quicksort"),
        (1.0, 0.85, "stable"),   # a narrow win is not a clear one
        (1.0, 1.2, "stable"),
        (1.0, 8.0, "stable"),    # introsort where there is no SIMD sort
    ])
    def test_injected_timings(self, fresh_kinds, monkeypatch,
                              stable_s, quick_s, kind):
        monkeypatch.setattr(sequential, "_time_kinds",
                            lambda dtype: (stable_s, quick_s))
        assert merge_kind(np.dtype(np.int32)) == kind

    def test_quicksort_loses_so_every_leaf_sorts_stably(self, fresh_kinds,
                                                        monkeypatch):
        monkeypatch.setattr(sequential, "_time_kinds",
                            lambda dtype: (1.0, 2.0))
        a = np.arange(0, 40, 2, dtype=np.int32)
        b = np.arange(1, 40, 2, dtype=np.int32)
        assert merge_kind(result_dtype(a, b)) == "stable"
        _assert_bytes(merge_vectorized(a, b), _oracle(a, b))

    @pytest.mark.parametrize("dtype", [
        np.float16, np.float32, np.float64, np.complex128, np.bool_,
        "datetime64[ns]", "U3",
    ])
    def test_other_kinds_never_leave_stable(self, fresh_kinds, monkeypatch,
                                            dtype):
        def no_probe(dtype):
            raise AssertionError("only integer dtypes are timed")

        monkeypatch.setattr(sequential, "_time_kinds", no_probe)
        assert merge_kind(np.dtype(dtype)) == "stable"

    def test_the_answer_is_measured_once_per_dtype(self, fresh_kinds,
                                                   monkeypatch):
        seen = []

        def probe(dtype):
            seen.append(dtype)
            return 1.0, 0.5

        monkeypatch.setattr(sequential, "_time_kinds", probe)
        for _ in range(3):
            merge_kind(np.dtype(np.int32))
            merge_kind(np.dtype(np.uint16))
        assert seen == [np.dtype(np.int32), np.dtype(np.uint16)]

    def test_concurrent_first_calls_time_once(self, fresh_kinds,
                                              monkeypatch):
        """Threads that miss the cache together wait for one probe: a
        second probe would run beside the first caller's merge."""
        seen, release = [], threading.Event()

        def probe(dtype):
            seen.append(dtype)
            release.wait(5)
            return 1.0, 0.5

        monkeypatch.setattr(sequential, "_time_kinds", probe)
        with ThreadPoolExecutor(4) as pool:
            calls = [pool.submit(merge_kind, np.dtype(np.int64))
                     for _ in range(4)]
            time.sleep(0.05)
            release.set()
            assert {c.result() for c in calls} == {"quicksort"}
        assert seen == [np.dtype(np.int64)]

    @pytest.mark.parametrize("dtype", [*INT_DTYPES, ">i4", ">u8"])
    def test_the_probe_times_two_sorted_runs(self, dtype):
        dt = np.dtype(dtype)
        buf = np.empty(1001, dtype=dt)
        sequential._probe_runs(buf, 0)
        for run in (buf[:500], buf[500:]):
            assert (np.diff(run.astype(np.int64)) >= 0).all()
        stable_s, quick_s = sequential._time_kinds(dt)
        assert 0 < stable_s < 1 and 0 < quick_s < 1


class TestTrimEdges:
    """The trim skips the head of ``A`` at or below ``B``'s first value
    and the tail of ``B`` at or above ``A``'s last one.  At these seams
    the result must still be the stable sort's bytes."""

    CASES = {
        "equal seam": ([1, 2, 3, 5], [5, 6, 7]),
        "equal seam, ties on both sides": ([1, 5, 5, 5], [5, 5, 5, 9]),
        "constant": ([4] * 9, [4] * 7),
        "length-1 A": ([5], list(range(10))),
        "length-1 B": (list(range(10)), [5]),
        "length-1 both": ([2], [1]),
        "head to trim": (list(range(100)), [90, 95, 200]),
        "tail to trim": ([5, 10, 15], list(range(100))),
        "B inside A": (list(range(0, 200, 2)), [101, 103]),
        "A inside B": ([101, 103], list(range(0, 200, 2))),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", CASES)
    def test_integer_seams(self, monkeypatch, kind, case):
        a, b = (np.array(x, np.int64) for x in self.CASES[case])
        _force(monkeypatch, kind)
        for path in PATHS:
            _assert_bytes(_merge(a, b, path), _oracle(a, b))

    FLOAT_CASES = {
        "NaN at both ends": ([1.0, np.nan], [np.nan, np.nan]),
        "NaN last in A": ([0.0, 1.0, 2.0, np.nan], [1.5, 3.0]),
        "NaN last in B": ([1.5, 3.0], [0.0, 1.0, 2.0, np.nan]),
        "all NaN": ([np.nan] * 3, [np.nan] * 2),
        "+0.0 then -0.0": ([-1.0, 0.0], [-0.0, 1.0]),
        "-0.0 then +0.0": ([-0.0, -0.0], [0.0, 0.0, 2.0]),
        "zeros and NaN": ([-0.0, 0.0, np.nan], [-0.0, np.nan]),
    }

    @pytest.mark.parametrize("case", FLOAT_CASES)
    def test_float_seams(self, case):
        """NaN payloads and zero signs keep their order: A's first."""
        a, b = (np.array(x, np.float64) for x in self.FLOAT_CASES[case])
        b.view(np.uint64)[np.isnan(b)] |= np.uint64(0x5)  # B's own NaNs
        for path in PATHS:
            _assert_bytes(_merge(a, b, path), _oracle(a, b))

    def test_a_disjoint_seam_sorts_nothing(self):
        """``A``'s last <= ``B``'s first: no sort is called at all (an
        invalid kind would raise)."""
        for a, b in [([1, 2], [2, 3]), ([1, 2], [3]), ([-0.0], [0.0])]:
            buf = np.array(a + b)
            _sort_runs(buf, len(a), "no such kind")
            _assert_bytes(buf, np.sort(np.array(a + b), kind="stable"))


class TestCheckedDescents:
    """The trim runs only after the checks: an unsorted input is
    reported with the same first descents whichever kind runs."""

    @pytest.mark.parametrize("path", ["whole", "walk"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_same_descents(self, monkeypatch, kind, path, seed):
        g = np.random.default_rng(seed)
        a = np.sort(g.integers(0, 50, int(g.integers(20, 200))))
        b = np.sort(g.integers(0, 50, int(g.integers(20, 200))))
        if seed % 3 != 1:
            a[int(g.integers(1, len(a)))] = -1
        if seed % 3 != 0:
            b[int(g.integers(1, len(b)))] = -1
        _force(monkeypatch, kind)
        if path == "walk":
            monkeypatch.setattr(sequential, "SUB_BLOCK_BYTES", 16)
        out = np.empty(len(a) + len(b), dtype=np.int64)
        i, j = merge_into(out, a, b, check=True)
        assert i == first_disorder(a)
        if i is None:
            assert j == first_disorder(b)
