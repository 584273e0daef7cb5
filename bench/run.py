"""The layered benchmark: merge, sort and serve workloads.

One workload, in this process (the form BENCHMARK.json's command uses)::

    python3 bench/run.py --workload merge_large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs a shorter untraced pass and a traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the host record, the autotune thresholds and sample counts.

Every workload, each in a fresh child process, both passes::

    python3 bench/run.py --seed 1 --out results.json [--quick]

writes every metric with its unit and sample count to ``results.json``
(compare two sets of such files with ``bench/compare.py``).

Either form exits 1 when any output differs from its reference, and 2
when the host has fewer CPUs than the benchmark's ``p`` or the checkout
has no program source.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import common

BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("merge_large", "merge_small", "sort", "serve_mix")


def _workload_class(name: str):
    if name == "serve_mix":
        from serve_mix import ServeMix

        return ServeMix
    from library import WORKLOADS

    return WORKLOADS[name]


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    from library import Tally

    spec = common.load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    workdir = common.make_workdir()
    try:
        common.compile_program(workdir)
        common.isolate_process(workdir)
        workload = _workload_class(name)(seed, quick, workdir)
        tally = Tally()
        if trace:
            metrics, detail = workload.per_layer(seconds, tally)
            metrics.update({m: 0.0 for m in workload.not_measured})
        else:
            metrics, detail = workload.end_to_end(seconds, tally)
    finally:
        common.remove_workdir(workdir)

    names = [m["name"] for m in wanted]
    missing = [m for m in names if m not in metrics]
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    bad = [m for m in names if not math.isfinite(metrics[m])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "quick": quick, "host": common.host_record(), "errors": tally.errors,
        **detail,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)
    return 0 if tally.failed == 0 else 1


def coldstart(name: str) -> int:
    """Child side of a set-up sample: import, first call of every op."""
    common.use_checkout_src()
    workdir = common.make_workdir()
    try:
        _workload_class(name)(0, True, workdir).coldstart()
    finally:
        common.remove_workdir(workdir)
    print("ready", flush=True)
    return 0


def _child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> tuple[dict, dict, int]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name} (trace {trace}) printed no result; exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1]), proc.returncode


def run_all(seed: int, seconds: float, quick: bool, out: Path) -> int:
    spec = common.load_spec()
    results: dict = {"schema": "repro-layered-bench/1", "seed": seed,
                     "seconds": seconds, "quick": quick,
                     "host": common.host_record(), "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = {"correct": True, "attempted": 0, "failed": 0, "metrics": {},
                 "reported": {}, "detail": {}}
        for trace in (0, 1):
            detail, result, rc = _child(name, seed, seconds, trace, quick)
            status = status or rc
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["autotune"] = detail.get("autotune")
            entry["reported"].update(detail.pop("reported", {}))
            entry["detail"]["per_layer" if trace else "end_to_end"] = detail
            samples_of = detail.get("samples", {})
            for metric, value in result["metrics"].items():
                value["samples"] = samples_of.get(metric)
                entry["metrics"][metric] = value
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        results["workloads"][name] = entry
        status = status or (0 if entry["correct"] else 1)
    out.write_text(json.dumps(results, indent=1) + "\n")

    print(f"{'workload':<12} {'metric':<28} {'value':>14} {'unit':<10} samples")
    for name, entry in results["workloads"].items():
        rows = [(m, entry["metrics"][m]) for m in
                [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]]
        rows += [(f"({m})", v) for m, v in entry["reported"].items()]
        rows.append(("error_rate", {"value": entry["error_rate"], "unit": "fraction",
                                    "samples": entry["attempted"]}))
        for metric, v in rows:
            samples = "" if v["samples"] is None else v["samples"]
            print(f"{name:<12} {metric:<28} {v['value']:>14.6g} {v['unit']:<10} {samples}")
    print("(name): reported, not gated")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed load per pass (default: BENCHMARK.json "
                             "run_seconds; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: checks the benchmark, measures nothing")
    parser.add_argument("--out", type=Path, help="results file (all workloads)")
    parser.add_argument("--coldstart", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    if ns.coldstart:
        return coldstart(ns.coldstart)
    common.use_checkout_src()
    if common.cpus() < common.P:
        print(f"bench: {common.cpus()} CPU(s) available, p={common.P} needs "
              f"{common.P}; refusing to record an oversubscribed run", file=sys.stderr)
        return 2
    seconds = ns.seconds
    if seconds is None:
        seconds = 2.0 if ns.quick else float(common.load_spec()["run_seconds"])
    if ns.workload:
        return run_one(ns.workload, ns.seed, seconds, bool(ns.trace), ns.quick)
    if ns.out is None:
        parser.error("give --workload, or --out for every workload")
    t0 = time.perf_counter()
    status = run_all(ns.seed, seconds, ns.quick, ns.out)
    print(f"total {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
