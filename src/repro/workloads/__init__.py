"""Workload generators for tests, examples, benchmarks and experiments.

* :mod:`repro.workloads.generators` — statistical inputs (uniform,
  gaussian, zipf-duplicates, pre-sorted pairs) with explicit seeding.
* :mod:`repro.workloads.adversarial` — structured worst cases: the
  paper's own "all elements of A greater than all those of B" killer
  for the naive split, disjoint ranges, perfect interleave, constant
  arrays, organ-pipe and staircase run structures.
* :mod:`repro.workloads.datasets` — scenario data for the examples
  (timestamped log records, time-series shards).
* :mod:`repro.workloads.canary` — the fixed SLO-instrumented replay
  behind ``python -m repro doctor`` (kept out of
  this namespace on purpose: it imports :mod:`repro.core`).
* :mod:`repro.workloads.loadgen` — the deterministic client fleet for
  the serve front door: many tiny merges plus occasional large sorts,
  every response checked against the serial oracle (also kept out of
  this namespace: it imports :mod:`repro.serve`).
"""

from .generators import (
    sorted_uniform_ints,
    sorted_uniform_floats,
    sorted_gaussian,
    sorted_zipf_duplicates,
    sorted_pair,
    unsorted_uniform_ints,
    nearly_sorted,
)
from .adversarial import (
    disjoint_low_high,
    disjoint_high_low,
    perfect_interleave,
    all_equal,
    organ_pipe_pair,
    staircase_runs,
    one_sided_tail,
    ADVERSARIAL_PAIRS,
)
from .datasets import log_records, timeseries_shards

__all__ = [
    "sorted_uniform_ints",
    "sorted_uniform_floats",
    "sorted_gaussian",
    "sorted_zipf_duplicates",
    "sorted_pair",
    "unsorted_uniform_ints",
    "nearly_sorted",
    "disjoint_low_high",
    "disjoint_high_low",
    "perfect_interleave",
    "all_equal",
    "organ_pipe_pair",
    "staircase_runs",
    "one_sided_tail",
    "ADVERSARIAL_PAIRS",
    "log_records",
    "timeseries_shards",
]
