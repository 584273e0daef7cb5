"""T14 — Theorem 14: partition cost bound and perfect balance.

Theorem 14 promises each of the ``p-1`` partition points is found in at
most ``log2(min(|A|,|B|))`` binary-search steps, independently, and
Corollary 7 that the resulting segments are equisized.  This experiment
measures, over the adversarial workload suite and a size/p sweep:

* the *maximum observed* probe count per diagonal vs the theorem bound;
* the segment-length imbalance (must be ≤ 1 always — the rounding
  residue of N/p, not a property of the data);
* total partition work as a fraction of total merge work (the paper's
  "negligible excess work" claim: ``p·log N / N``).
"""

from __future__ import annotations

import numpy as np

from ..core.merge_path import max_search_steps, partition_merge_path
from ..types import ExperimentResult
from ..workloads.adversarial import ADVERSARIAL_PAIRS
from ..workloads.generators import sorted_uniform_ints

__all__ = ["run"]


def run(
    *,
    sizes: tuple[int, ...] = (1 << 10, 1 << 14, 1 << 18),
    ps: tuple[int, ...] = (2, 8, 32),
    seed: int = 3,
) -> ExperimentResult:
    """Sweep workloads × sizes × p, reporting probe counts vs the bound."""
    result = ExperimentResult(
        exp_id="T14",
        title="Partition cost and balance vs Theorem 14 / Corollary 7",
        columns=[
            "workload",
            "n_per_array",
            "p",
            "max_probes",
            "bound_log2_min",
            "within_bound",
            "imbalance",
            "partition_work_frac",
        ],
    )
    workloads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for n in sizes:
        workloads[f"uniform/{n}"] = (
            sorted_uniform_ints(n, seed),
            sorted_uniform_ints(n, seed + 1),
        )
        for name, make in ADVERSARIAL_PAIRS.items():
            workloads[f"{name}/{n}"] = make(n)

    all_within = True
    for key, (a, b) in workloads.items():
        name, n_str = key.rsplit("/", 1)
        n = int(n_str)
        for p in ps:
            part = partition_merge_path(a, b, p, check=False)
            max_probes = max(part.search_steps, default=0)
            bound = max_search_steps(len(a), len(b))
            within = max_probes <= bound
            all_within &= within
            total = len(a) + len(b)
            work_frac = sum(part.search_steps) / total if total else 0.0
            result.add_row(
                workload=name,
                n_per_array=n,
                p=p,
                max_probes=max_probes,
                bound_log2_min=bound,
                within_bound=within,
                imbalance=part.max_imbalance,
                partition_work_frac=round(work_frac, 6),
            )
    result.notes.append(
        f"all probe counts within Theorem 14 bound: {all_within}; "
        "imbalance column must never exceed 1 (Corollary 7 + rounding)"
    )
    return result
