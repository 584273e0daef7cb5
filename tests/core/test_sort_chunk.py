"""The run-forming leaf, :func:`repro.core.sequential.sort_chunk`.

Integer chunks sort with NumPy's unstable quicksort and every other
dtype stably, so every sort of the package must still produce exactly
the bytes (and the dtype) of ``np.sort(x, kind="stable")``.  Equal
integers have identical bits; equal bools, floats (``-0.0``/``0.0``)
and NaNs need not, which is what these inputs probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    cache_efficient_sort,
    kway_merge,
    natural_merge_sort,
    parallel_merge,
    parallel_merge_sort,
)
from repro.core.merge_path import (
    diagonal_intersection,
    diagonal_intersections_vectorized,
)
from repro.core.sequential import sort_chunk
from repro.errors import InputError
from repro.external import external_sort, external_sort_file


def _ints(dtype: str) -> np.ndarray:
    info = np.iinfo(dtype)
    g = np.random.default_rng(np.dtype(dtype).itemsize)
    x = g.integers(info.min, info.max, 300, dtype=dtype, endpoint=True)
    x[::3] = x[1]  # duplicate-heavy: the unstable sort reorders ties
    return x


def _noncanonical_bools() -> np.ndarray:
    g = np.random.default_rng(3)
    raw = g.integers(0, 4, 300).astype(np.uint8)  # 2 and 3 are true too
    return raw.view(np.bool_)


def _signed_floats() -> np.ndarray:
    g = np.random.default_rng(4)
    x = g.integers(-3, 4, 300).astype(np.float64)
    x[g.random(300) < 0.2] = -0.0
    x[g.random(300) < 0.15] = np.nan
    bits = x.view(np.uint64)
    payload = np.isnan(x) & (g.random(300) < 0.5)
    bits[payload] |= np.uint64(0x7)  # NaNs that differ in their payload
    return x


INPUTS = {
    **{dt: (lambda dt=dt: _ints(dt))
       for dt in ("int8", "int16", "int32", "int64",
                  "uint8", "uint16", "uint32", "uint64")},
    ">i4": lambda: _ints("int32").astype(">i4"),
    "bool": _noncanonical_bools,
    "bool-two-one": lambda: np.array([2, 1], np.uint8).view(np.bool_),
    "float64": _signed_floats,
}

CONFIGS = {
    "serial": {"backend": "serial"},
    "threads": {"backend": "threads"},
    "processes": {"backend": "processes"},
    "resilient": {"backend": "threads", "resilience": True},
}


def _same(out: np.ndarray, x: np.ndarray) -> None:
    ref = np.sort(x, kind="stable")
    assert out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


def _sorts_like_np_sort(x: np.ndarray, p: int, config: str) -> None:
    """``parallel_merge_sort`` under ``config`` gives ``np.sort``'s
    bytes; the process pool refuses it (in-memory sorts run
    in-process)."""
    if config == "processes":
        with pytest.raises(InputError, match="run in-process"):
            parallel_merge_sort(x, p, **CONFIGS[config])
    else:
        _same(parallel_merge_sort(x, p, **CONFIGS[config]), x)


@pytest.mark.parametrize("name", INPUTS)
def test_sort_chunk_gives_the_stable_bytes(name):
    x = INPUTS[name]()
    before = x.tobytes()
    out = sort_chunk(x)
    _same(out, x)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", INPUTS)
def test_parallel_merge_sort_gives_the_stable_bytes(name, config):
    x = INPUTS[name]()
    before = x.tobytes()
    _sorts_like_np_sort(x, 3, config)
    assert x.tobytes() == before


@pytest.mark.parametrize("name", INPUTS)
def test_the_other_sorts_give_the_stable_bytes(name):
    x = INPUTS[name]()
    _same(cache_efficient_sort(x, 3, 48, backend="serial"), x)
    _same(natural_merge_sort(x, 3, backend="serial"), x)


@pytest.mark.parametrize("name", INPUTS)
def test_kway_merge_gives_the_stable_bytes(name):
    """Three sorted runs of one input: the k-way merge cuts and merges
    their sort keys (bools as their bytes) and returns the runs' dtype,
    byte order included."""
    x = INPUTS[name]()
    runs = [np.sort(part, kind="stable") for part in np.array_split(x, 3)]
    _same(kway_merge(runs, 3, backend="threads"), x)


@pytest.mark.parametrize("config", CONFIGS)
def test_sort_reads_its_input_in_place(config):
    x = _ints("int32")
    x.flags.writeable = False  # a write to the input would raise
    _sorts_like_np_sort(x, 4, config)


@pytest.mark.parametrize("x", [np.array([], np.int32), np.array([7])])
def test_tiny_sorts_return_a_fresh_array(x):
    out = parallel_merge_sort(x, 2, backend="serial")
    _same(out, x)
    assert not np.shares_memory(out, x)


def test_external_sort_gives_the_stable_bytes(tmp_path):
    x = _ints("int64")
    _same(external_sort(x, 64, directory=str(tmp_path)), x)  # processes


@pytest.mark.parametrize("name", [">i4", "bool", "bool-two-one"])
def test_external_sort_gives_the_stable_bytes_of_every_kind(tmp_path, name):
    """Both entry points, in one pass and in several: intermediate runs
    hold the keys, and the sorted file has ``np.sort``'s dtype."""
    x = INPUTS[name]()
    in_path = str(tmp_path / "in.npy")
    np.save(in_path, x)
    for fan_in in (None, 2):
        _same(external_sort(x, 64, directory=str(tmp_path), fan_in=fan_in),
              x)
        final, _ = external_sort_file(in_path, memory_elements=64,
                                      directory=str(tmp_path), fan_in=fan_in,
                                      backend="threads")
        _same(np.load(final.path), x)


class TestNaNLast:
    """NumPy sorts NaN after every other value; the diagonal search
    must cut in that order, or neighbouring cuts cross."""

    def test_three_element_sort(self):
        x = np.array([2.0, np.nan, 2.0])
        _same(parallel_merge_sort(x, 3, backend="serial"), x)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_sort_matches_numpy(self, seed):
        g = np.random.default_rng(seed)
        x = g.integers(-3, 4, int(g.integers(2, 200))).astype(np.float64)
        x[g.random(len(x)) < 0.25] = np.nan
        x[g.random(len(x)) < 0.1] = -0.0
        if seed % 2:
            x[: len(x) // 2] = np.sort(x[: len(x) // 2])[::-1]
        p = int(g.integers(2, 9))
        _same(parallel_merge_sort(x, p, backend="serial"), x)
        _same(parallel_merge_sort(x, p, backend="threads"), x)
        _same(cache_efficient_sort(x, 3, 16, backend="serial"), x)
        _same(natural_merge_sort(x.copy(), 3, backend="serial"), x)

    @pytest.mark.parametrize("seed", range(10))
    def test_merges_match_numpy(self, seed):
        g = np.random.default_rng(100 + seed)
        x = g.integers(0, 5, 120).astype(np.float64)
        x[g.random(120) < 0.3] = np.nan
        a, b = np.sort(x[:50]), np.sort(x[50:])
        both = np.concatenate([a, b])
        for p in (2, 3, 7):
            _same(parallel_merge(a, b, p, backend="serial"), both)

    def test_cuts_are_monotone_in_both_searches(self):
        g = np.random.default_rng(7)
        for _ in range(50):
            a = np.sort(np.where(g.random(30) < 0.3, np.nan,
                                 g.integers(0, 4, 30).astype(float)))
            b = np.sort(np.where(g.random(25) < 0.3, np.nan,
                                 g.integers(0, 4, 25).astype(float)))
            ds = np.arange(len(a) + len(b) + 1)
            lockstep = diagonal_intersections_vectorized(a, b, ds)
            scalar = [diagonal_intersection(a, b, int(d)).i for d in ds]
            assert lockstep.tolist() == scalar
            assert (np.diff(lockstep) >= 0).all()

