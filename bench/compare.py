"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 bench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a results file written by ``bench/run.py --out``.  Files of
the two sets pair up in the order given (run them alternately: A1, B1,
A2, B2, ...).  For every workload and end-to-end metric the report gives
each side's median and quartiles, the share of pairs the new side wins
(ties count for neither), and a verdict against the bound in
``BENCHMARK.json``:

improved
    at least ten pairs, the new side wins at least nine tenths of them,
    and the medians differ by more than the base's quartile spread;
regressed
    the new median is worse than the base median by more than the bound
    (when the runs spread wider than the bound, only if every new run is
    worse than every base run);
unresolved
    the runs of either side spread wider than the bound, so a change of
    the bound's size could not be seen;
unchanged
    otherwise.

``error_rate`` (failed over attempted, all runs of a side) has a bound
of 0: any rise is a regression.  Per-layer metrics have no bound; their
medians are listed so a change can name the layer that moved.  Exits 1
when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Verdict:
    base_median: float
    base_q: tuple[float, float]
    new_median: float
    new_q: tuple[float, float]
    change: float  #: relative change of the median, signed
    wins: float  #: share of pairs the new side wins
    verdict: str


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(base: list[float], new: list[float], better: str, bound: float) -> Verdict:
    """The verdict for one metric; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (y - x) > 0

    mb, mn = statistics.median(base), statistics.median(new)
    qb, qn = _quartiles(base), _quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs) / len(pairs) if pairs else 0.0
    change = (mn - mb) / abs(mb) if mb else 0.0
    worse = sign * change
    spread = max((qb[1] - qb[0]) / abs(mb) if mb else 0.0,
                 (qn[1] - qn[0]) / abs(mn) if mn else 0.0)
    if len(pairs) >= 10 and wins >= 0.9 and sign * (mb - mn) > qb[1] - qb[0]:
        verdict = "improved"
    elif all(beats(n, b) for b in base for n in new):
        verdict = "unchanged"  # every new run beats every base run
    elif spread > bound:
        every_worse = all(beats(b, n) for b in base for n in new)
        verdict = "regressed" if every_worse and worse > bound else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return Verdict(mb, qb, mn, qn, change, wins, verdict)


def _load(paths: list[Path]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f)["workloads"])
    return runs


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for run in runs:
        entry = run.get(workload, {})
        found = entry.get("metrics", {}).get(metric) or entry.get("reported", {}).get(metric)
        if found is not None:
            values.append(found["value"])
    return values


def _error_rate(runs: list[dict], workload: str) -> float:
    entries = [run[workload] for run in runs if workload in run]
    attempted = sum(e["attempted"] for e in entries)
    return sum(e["failed"] for e in entries) / attempted if attempted else 0.0


def compare(base_paths: list[Path], new_paths: list[Path], spec: dict) -> int:
    base, new = _load(base_paths), _load(new_paths)
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = 0
    print(f"{'workload':<12} {'metric':<20} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'wins':>5} {'bound':>6}  verdict")
    for workload in workloads:
        for m in spec["end_to_end"]:
            b, n = _values(base, workload, m["name"]), _values(new, workload, m["name"])
            if not b or not n:
                print(f"{workload:<12} {m['name']:<20} missing on one side")
                regressed += 1
                continue
            v = judge(b, n, m["better"], m["bound"])
            regressed += v.verdict == "regressed"
            print(f"{workload:<12} {m['name']:<20} "
                  f"{v.base_median:>11.5g} [{v.base_q[0]:.5g}, {v.base_q[1]:.5g}]".ljust(64)
                  + f"{v.new_median:>11.5g} [{v.new_q[0]:.5g}, {v.new_q[1]:.5g}]".ljust(31)
                  + f"{v.change:>+8.1%} {v.wins:>5.2f} {m['bound']:>6.0%}  {v.verdict}")
        rb, rn = _error_rate(base, workload), _error_rate(new, workload)
        verdict = "regressed" if rn > rb else "unchanged"
        regressed += verdict == "regressed"
        print(f"{workload:<12} {'error_rate':<20} {rb:>11.5g}".ljust(64)
              + f"{rn:>11.5g}".ljust(31) + f"{rn - rb:>+8.3g} {'':>5} {0:>6}  {verdict}")
    print("\nreported and per-layer metrics (no bound): median base -> new")
    for workload in workloads:
        names = [m["name"] for m in spec["per_layer"]]
        names += sorted({m for run in base for m in run.get(workload, {}).get("reported", {})})
        for name in names:
            b, n = _values(base, workload, name), _values(new, workload, name)
            if b and n and (statistics.median(b) or statistics.median(n)):
                mb, mn = statistics.median(b), statistics.median(n)
                change = f"{(mn - mb) / abs(mb):+.1%}" if mb else ""
                print(f"{workload:<12} {name:<28} {mb:>12.5g} -> {mn:<12.5g} {change}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    ns = parser.parse_args(argv)
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    return compare(ns.base, ns.new, spec)


if __name__ == "__main__":
    sys.exit(main())
