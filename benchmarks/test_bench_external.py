"""External-sort bench — measured block transfers vs the Aggarwal–Vitter
bound, across memory budgets."""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.external import IOCounter, aggarwal_vitter_bound, external_sort
from repro.workloads.generators import unsorted_uniform_ints

from .conftest import FULL

N = (1 << 18) if FULL else (1 << 14)
BLOCK = 256


@pytest.fixture(scope="module")
def data():
    return unsorted_uniform_ints(N, 900)


def test_external_io_table(benchmark, data):
    """Transfers vs the I/O-model lower bound at several budgets.

    Every budget merges all runs in one SPM-planned pass, so transfers
    stay within a small constant of the bound.
    """

    def run_all():
        rows = []
        for mem in (N // 32, N // 8, N // 2):
            io = IOCounter(block_elements=BLOCK)
            out = external_sort(data, mem, io=io, backend="threads",
                                workers=4)
            assert np.array_equal(out, np.sort(data, kind="stable"))
            bound = aggarwal_vitter_bound(N, mem, BLOCK)
            rows.append([mem, io.read_blocks, io.write_blocks,
                         io.total_blocks, round(bound, 1),
                         round(io.total_blocks / bound, 2) if bound else "-"])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(render_table(
        ["memory_elems", "read_blocks", "write_blocks", "total",
         "AV_bound", "total/bound"],
        rows,
    ))
    for row in rows:
        if row[5] != "-":
            assert float(row[5]) < 8  # one planned pass per budget


def test_bench_external_sort(benchmark, data):
    out = benchmark(external_sort, data, N // 8, backend="threads", workers=4)
    assert len(out) == N


def test_bench_in_memory_reference(benchmark, data):
    benchmark(np.sort, data, kind="mergesort")
