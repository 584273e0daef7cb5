"""Bench-regression emitter: ``BENCH_<date>.json`` snapshots.

A deliberately small, reproducible suite — merge / segmented merge /
sort / out-of-core external sort over a size-and-``p`` grid — timed
*untraced* (best of three) so
the numbers reflect the kernels, then run once more *traced* to attach
the load-balance story and once more *metered* to attach the batched
execution engine's dispatch accounting.  The output is a flat JSON
document that a later run can diff against::

    python -m repro bench --quick --out BENCH_ci.json
    python benchmarks/emit.py --quick          # same thing, standalone
    python benchmarks/emit.py --quick --compare BENCH_2026-08-06.json

Schema (``"repro-bench/2"``)::

    {
      "schema": "repro-bench/2",
      "created_utc": "2026-08-06T12:00:00Z",
      "host": {"platform": ..., "python": ..., "numpy": ..., "cpus": ...},
      "quick": true,
      "results": [
        {"op": "parallel_merge", "n": 65536, "p": 4,
         "ns_per_elem": 12.3, "best_s": ..., "runs_s": [...],
         "time_imbalance": 1.04, "work_imbalance": 1.0, "workers": 4,
         "os_threads": 1, "work_spread": 1, "dispatches": 1}
      ]
    }

Version history: ``repro-bench/1`` lacked ``os_threads``,
``work_spread`` and ``dispatches``, and its ``workers`` /
``work_imbalance`` aggregated by OS thread — on a host whose pool
multiplexes several logical slots onto one thread that under-reported
``workers`` and inflated ``work_imbalance`` even though the partition
was perfect (Theorem 14).  v2 aggregates by logical worker slot and
reports the OS-thread count separately; :func:`compare_bench` accepts
both versions.

``ns_per_elem`` divides by the *output* length (2n for merges, n for
sorts) so rows are comparable across ops.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import time
from typing import Callable

import numpy as np

from ..core.merge_sort import parallel_merge_sort
from ..core.parallel_merge import parallel_merge
from ..core.segmented_merge import segmented_parallel_merge
from ..external.sort import external_sort
from ..workloads.generators import sorted_uniform_ints, unsorted_uniform_ints
from .balance import load_balance_from_trace
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = [
    "BENCH_SCHEMA",
    "run_bench_suite",
    "write_bench_file",
    "compare_bench",
    "format_comparison",
]

BENCH_SCHEMA = "repro-bench/2"

_REPEATS = 3


def _time_best(fn: Callable[[], object], repeats: int = _REPEATS) -> tuple[float, list[float]]:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    runs: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return min(runs), runs


def _bench_case(
    op: str,
    n: int,
    p: int,
    untraced: Callable[[], object],
    traced: Callable[[Tracer], object],
    metered: Callable[[MetricsRegistry], object],
    out_len: int,
    balance_span: str = "segment.merge",
) -> dict:
    best, runs = _time_best(untraced)
    tracer = Tracer()
    traced(tracer)
    report = load_balance_from_trace(tracer, balance_span)
    registry = MetricsRegistry()
    metered(registry)
    names = registry.names()
    dispatches = (
        int(registry.value("exec.dispatches_per_call"))
        if "exec.dispatches_per_call" in names else 0
    )
    work_spread = (
        int(registry.value("balance.work_spread"))
        if "balance.work_spread" in names else 0
    )
    return {
        "op": op,
        "n": int(n),
        "p": int(p),
        "best_s": round(best, 6),
        "runs_s": [round(r, 6) for r in runs],
        "ns_per_elem": round(best * 1e9 / max(1, out_len), 3),
        "time_imbalance": round(report.time_imbalance, 4),
        "work_imbalance": round(report.work_imbalance, 4),
        "workers": report.worker_count,
        "os_threads": report.os_threads,
        "work_spread": work_spread,
        "dispatches": dispatches,
    }


def run_bench_suite(*, quick: bool = False, seed: int = 7) -> dict:
    """Run the regression suite and return the bench document."""
    sizes = [1 << 14] if quick else [1 << 16, 1 << 18]
    ps = (2, 4) if quick else (2, 4, 8)
    results: list[dict] = []

    for n in sizes:
        a = sorted_uniform_ints(n, seed)
        b = sorted_uniform_ints(n, seed + 1)
        x = unsorted_uniform_ints(n, seed + 2)
        L = max(1, n // 8)
        for p in ps:
            results.append(_bench_case(
                "parallel_merge", n, p,
                lambda: parallel_merge(a, b, p, backend="threads"),
                lambda tr: parallel_merge(a, b, p, backend="threads",
                                          trace=tr),
                lambda reg: parallel_merge(a, b, p, backend="threads",
                                           metrics=reg),
                2 * n,
            ))
            results.append(_bench_case(
                "segmented_parallel_merge", n, p,
                lambda: segmented_parallel_merge(a, b, p, L=L,
                                                 backend="threads"),
                lambda tr: segmented_parallel_merge(a, b, p, L=L,
                                                    backend="threads",
                                                    trace=tr),
                lambda reg: segmented_parallel_merge(a, b, p, L=L,
                                                     backend="threads",
                                                     metrics=reg),
                2 * n,
            ))
            results.append(_bench_case(
                "parallel_merge_sort", n, p,
                lambda: parallel_merge_sort(x, p, backend="threads"),
                lambda tr: parallel_merge_sort(x, p, backend="threads",
                                               trace=tr),
                lambda reg: parallel_merge_sort(x, p, backend="threads",
                                                metrics=reg),
                n,
            ))
            # Out-of-core path under a 1/8 RAM budget: 8 spilled runs,
            # SPM-planned single-pass block fan-in (docs/external.md).
            M = max(1, n // 8)
            results.append(_bench_case(
                "external_sort", n, p,
                lambda: external_sort(x, M, backend="threads", workers=p),
                lambda tr: external_sort(x, M, backend="threads",
                                         workers=p, trace=tr),
                lambda reg: external_sort(x, M, backend="threads",
                                          workers=p, metrics=reg),
                n,
                # the out-of-core pipeline's unit of parallel work is
                # the batch task (runs / block merges), not an in-RAM
                # merge segment
                balance_span="backend.task",
            ))

    created = _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": created,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count() or 1,
        },
        "quick": bool(quick),
        "results": results,
    }


def write_bench_file(
    path: str | None = None, *, quick: bool = False, seed: int = 7
) -> str:
    """Run the suite and write ``BENCH_<YYYY-MM-DD>.json`` (or ``path``)."""
    doc = run_bench_suite(quick=quick, seed=seed)
    if path is None:
        date = doc["created_utc"][:10]
        path = f"BENCH_{date}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Snapshot comparison (the perf ratchet behind ``emit.py --compare``)
# ---------------------------------------------------------------------------

def compare_bench(
    baseline: dict,
    current: dict,
    *,
    warn_frac: float = 0.25,
    fail_frac: float = 0.25,
) -> dict:
    """Diff two bench documents row by row on ``ns_per_elem``.

    Rows match on ``(op, n, p)``; rows present in only one document are
    reported but never gate.  ``delta`` is the fractional change
    ``(current - baseline) / baseline`` — positive = regression.  A row
    whose delta exceeds ``warn_frac`` gets status ``"warn"``; above
    ``fail_frac`` it gets ``"fail"``.  Accepts both ``repro-bench/1``
    and ``/2`` documents (the gate only needs ``ns_per_elem``).

    Returns ``{"rows": [...], "warned": bool, "failed": bool,
    "worst": float | None}`` where ``worst`` is the largest delta over
    matched rows.
    """
    def index(doc: dict) -> dict[tuple, dict]:
        return {
            (r["op"], r["n"], r["p"]): r for r in doc.get("results", [])
        }

    base_rows = index(baseline)
    cur_rows = index(current)
    rows: list[dict] = []
    worst: float | None = None
    warned = failed = False
    for key in sorted(set(base_rows) | set(cur_rows)):
        op, n, p = key
        base = base_rows.get(key)
        cur = cur_rows.get(key)
        row: dict = {"op": op, "n": n, "p": p}
        if base is None or cur is None:
            row.update({
                "status": "unmatched",
                "base_ns": base["ns_per_elem"] if base else None,
                "cur_ns": cur["ns_per_elem"] if cur else None,
                "delta": None,
            })
            rows.append(row)
            continue
        base_ns = float(base["ns_per_elem"])
        cur_ns = float(cur["ns_per_elem"])
        delta = (cur_ns - base_ns) / base_ns if base_ns > 0 else 0.0
        worst = delta if worst is None else max(worst, delta)
        if delta > fail_frac:
            status = "fail"
            failed = True
        elif delta > warn_frac:
            status = "warn"
            warned = True
        else:
            status = "ok"
        row.update({
            "status": status,
            "base_ns": base_ns,
            "cur_ns": cur_ns,
            "delta": round(delta, 4),
        })
        rows.append(row)
    return {"rows": rows, "warned": warned, "failed": failed, "worst": worst}


def format_comparison(cmp: dict) -> str:
    """Human-readable table for a :func:`compare_bench` result."""
    lines = [
        f"{'op':<26} {'n':>8} {'p':>3} {'base ns/el':>11} "
        f"{'cur ns/el':>11} {'delta':>8}  status"
    ]
    for row in cmp["rows"]:
        delta = (
            f"{row['delta'] * 100:+7.1f}%" if row["delta"] is not None
            else "      —"
        )
        base_ns = f"{row['base_ns']:.3f}" if row["base_ns"] is not None else "—"
        cur_ns = f"{row['cur_ns']:.3f}" if row["cur_ns"] is not None else "—"
        lines.append(
            f"{row['op']:<26} {row['n']:>8} {row['p']:>3} {base_ns:>11} "
            f"{cur_ns:>11} {delta:>8}  {row['status']}"
        )
    if cmp["worst"] is not None:
        lines.append(f"worst delta: {cmp['worst'] * 100:+.1f}%")
    return "\n".join(lines)
