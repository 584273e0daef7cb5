#!/usr/bin/env python3
"""Scenario: sorting data that doesn't fit in memory, with I/O accounting.

Runs the SPM-planned external merge sort (the Section IV.C structure
pushed down one memory level) under shrinking memory budgets and
reports measured block transfers against the Aggarwal–Vitter lower
bound — the disk-era version of the paper's cache-efficiency argument.

Run:  python examples/external_bigdata.py
"""

import numpy as np

from repro.external import IOCounter, aggarwal_vitter_bound, external_sort
from repro.workloads.generators import unsorted_uniform_ints


def main() -> None:
    n = 1 << 18           # "too big for RAM" stand-in
    block = 256           # disk block, in elements

    data = unsorted_uniform_ints(n, seed=7)
    print(f"input: {n:,} elements; block size {block} elements\n")
    print(f"{'memory':>10} {'runs':>5} {'reads':>8} {'writes':>8} "
          f"{'total':>8} {'AV bound':>9} {'x bound':>8}")

    for mem in (n // 2, n // 8, n // 32):
        io = IOCounter(block_elements=block)
        out = external_sort(data, mem, io=io, backend="threads", workers=4)
        assert np.array_equal(out, np.sort(data))
        runs = -(-n // mem)
        bound = aggarwal_vitter_bound(n, mem, block)
        factor = io.total_blocks / bound if bound else float("nan")
        print(f"{mem:>10,} {runs:>5} {io.read_blocks:>8,} "
              f"{io.write_blocks:>8,} {io.total_blocks:>8,} "
              f"{bound:>9,.0f} {factor:>8.2f}")

    print("\nreading the table:")
    print(" * every budget sorts correctly in one merge pass: the runs'")
    print("   k-way merge is cut into memory-sized blocks at equispaced")
    print("   output ranks (merge-path planning, one dispatch per pass);")
    print(" * the measured-to-bound factor stays a small constant while")
    print("   the run count is at most M/B: each block then reads about")
    print("   one disk block per run.  Past that (M = n/128 here: 128")
    print("   runs, M/B = 8) every block reads a partial window of every")
    print("   run and the factor climbs to about 10;")
    print(" * every block merge is idempotent — safe to retry under the")
    print("   resilience layer (Theorem 14's disjointness, on disk).")

if __name__ == "__main__":
    main()
