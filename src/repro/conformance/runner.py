"""Conformance runner: drive the registry over the workload grid.

``run_conformance`` executes, for **every** registered implementation:

* ``differential`` — output equality with the sequential oracle over
  the full deterministic case grid (exceptions count as failures); the
  first mismatch is minimized into a reproducer;
* ``stability``    — the signed-zero probes (value implementations) or
  exact gather-permutation checks (keyed implementations);
* ``balance``      — Theorem 14 on the partition the implementation's
  inputs induce (segment sizes within ``{floor,ceil}(N/p)`` and
  segment merges concatenating to the oracle);
* ``disjoint``     — structural output-slice disjointness of that
  partition (the lock-freedom precondition);
* ``races``        — the write-set-tracking audit on the real backend,
  for implementations that expose the partition + ``merge_into``
  structure (skip otherwise).

One run-level check, ``unsorted-input``, drives every implementation
marked ``rejects_unsorted`` over the unsorted grid and compares the
``NotSortedError``'s ``(name, index)`` with a scan of ``A`` then ``B``.

Implementations flagged ``known_unsound`` (the paper's naive-split
counterexample) are required to **fail** the differential check — a
standing mutation test proving the oracle can detect broken merges.

The run is deterministic: same ``(tier, seed)`` → same cases, same
verdicts.  ``DEFAULT_SEED`` pins the pytest quick tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.merge_path import partition_merge_path
from ..errors import NotSortedError
from ..validation import first_disorder
from .fuzzer import (
    Mismatch,
    merge_reproducer,
    minimize_merge_case,
    minimize_sort_case,
    run_kway_case,
    run_merge_case,
    run_sort_case,
    sort_reproducer,
)
from .invariants import (
    check_flip_point_uniqueness,
    check_kway_balance,
    check_partition_balance,
    check_slice_disjointness,
)
from .races import audited_parallel_merge
from .registry import BackendCache, Implementation, build_registry
from .workloads import (
    KwayCase,
    MergeCase,
    SortCase,
    kway_cases,
    merge_cases,
    sort_cases,
    unsorted_cases,
)

__all__ = [
    "DEFAULT_SEED",
    "CheckResult",
    "ImplementationReport",
    "ConformanceReport",
    "run_conformance",
    "render_report",
]

#: Deterministic workload seed for the pytest quick tier (0xE = 14,
#: for Theorem 14).
DEFAULT_SEED = 0xE

#: Statuses that do not fail a report.
_OK_STATUSES = frozenset({"pass", "skip", "expected-fail"})


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check for one implementation."""

    name: str
    status: str  # pass | fail | skip | expected-fail
    detail: str = ""
    cases: int = 0
    mismatch: Mismatch | None = None


@dataclass(frozen=True)
class ImplementationReport:
    """All check outcomes for one registered implementation."""

    impl: Implementation
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status in _OK_STATUSES for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class ConformanceReport:
    """Aggregate result of one conformance run."""

    tier: str
    seed: int
    reports: tuple[ImplementationReport, ...]
    run_checks: tuple[CheckResult, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports) and all(
            c.status in _OK_STATUSES for c in self.run_checks
        )

    @property
    def implementations(self) -> tuple[str, ...]:
        return tuple(r.impl.name for r in self.reports)

    @property
    def mismatches(self) -> tuple[Mismatch, ...]:
        out = []
        for r in self.reports:
            for c in r.checks:
                if c.mismatch is not None and c.status == "fail":
                    out.append(c.mismatch)
        return tuple(out)


# ----------------------------------------------------------------------
# Per-implementation check drivers
# ----------------------------------------------------------------------
def _differential_merge(
    impl: Implementation, cases: list[MergeCase], seed: int
) -> CheckResult:
    failures = 0
    first: Mismatch | None = None
    ran = 0
    for case in cases:
        if impl.max_elements is not None and case.total > impl.max_elements:
            continue
        ran += 1
        detail = run_merge_case(impl, case)
        if detail is None:
            continue
        failures += 1
        if first is None:
            small = minimize_merge_case(impl, case)
            small_detail = run_merge_case(impl, small) or detail
            first = Mismatch(
                impl=impl.name,
                case=case.name,
                detail=small_detail,
                inputs={"a": small.a, "b": small.b, "p": small.p},
                reproducer=merge_reproducer(impl, small, seed),
            )
    if impl.known_unsound:
        if failures:
            return CheckResult(
                "differential",
                "expected-fail",
                f"counterexample confirmed on {failures}/{ran} cases",
                cases=ran,
                mismatch=first,
            )
        return CheckResult(
            "differential",
            "fail",
            "known-unsound implementation passed every case — "
            "the oracle has lost its teeth",
            cases=ran,
        )
    if failures:
        assert first is not None
        return CheckResult(
            "differential",
            "fail",
            f"{failures}/{ran} cases failed; first (minimized): {first.detail}",
            cases=ran,
            mismatch=first,
        )
    return CheckResult("differential", "pass", cases=ran)


def _differential_sort(
    impl: Implementation, cases: list[SortCase], seed: int
) -> CheckResult:
    failures = 0
    first: Mismatch | None = None
    ran = 0
    for case in cases:
        if impl.max_elements is not None and len(case.x) > impl.max_elements:
            continue
        ran += 1
        detail = run_sort_case(impl, case)
        if detail is None:
            continue
        failures += 1
        if first is None:
            small = minimize_sort_case(impl, case)
            small_detail = run_sort_case(impl, small) or detail
            first = Mismatch(
                impl=impl.name,
                case=case.name,
                detail=small_detail,
                inputs={"x": small.x, "p": small.p},
                reproducer=sort_reproducer(impl, small, seed),
            )
    if failures:
        assert first is not None
        return CheckResult(
            "differential",
            "fail",
            f"{failures}/{ran} cases failed; first (minimized): {first.detail}",
            cases=ran,
            mismatch=first,
        )
    return CheckResult("differential", "pass", cases=ran)


def _differential_kway(impl: Implementation, cases: list[KwayCase]) -> CheckResult:
    failures = []
    ran = 0
    for case in cases:
        if impl.max_elements is not None and case.total > impl.max_elements:
            continue
        ran += 1
        detail = run_kway_case(impl, case)
        if detail is not None:
            failures.append(f"{case.name}: {detail}")
    if failures:
        return CheckResult(
            "differential", "fail", "; ".join(failures[:3]), cases=ran
        )
    return CheckResult("differential", "pass", cases=ran)


def _stability_check(
    impl: Implementation, cases: list[MergeCase], seed: int
) -> CheckResult:
    if impl.known_unsound:
        return CheckResult("stability", "skip", "known-unsound implementation")
    if impl.kind == "keyed":
        # Every keyed case checks the exact gather permutation, which
        # subsumes the signed-zero probe; run the duplicate-heavy grid.
        probes = [
            c
            for c in cases
            if c.stability_probe
            or "zipf" in c.name
            or "all_equal" in c.name
            or "singleton" in c.name
        ]
    elif not impl.stable:
        return CheckResult(
            "stability", "skip", "implementation makes no stability promise"
        )
    else:
        probes = [c for c in cases if c.stability_probe]
    ran = 0
    for case in probes:
        if impl.max_elements is not None and case.total > impl.max_elements:
            continue
        ran += 1
        detail = run_merge_case(impl, case)
        if detail is not None:
            small = minimize_merge_case(impl, case)
            small_detail = run_merge_case(impl, small) or detail
            return CheckResult(
                "stability",
                "fail",
                f"{case.name}: {small_detail}",
                cases=ran,
                mismatch=Mismatch(
                    impl=impl.name,
                    case=case.name,
                    detail=small_detail,
                    inputs={"a": small.a, "b": small.b, "p": small.p},
                    reproducer=merge_reproducer(impl, small, seed),
                ),
            )
    return CheckResult("stability", "pass", cases=ran)


def _balance_and_disjoint(
    impl: Implementation,
    mcases: list[MergeCase],
    scases: list[SortCase],
    kcases: list[KwayCase],
    partition_cache: dict[tuple[str, str], str | None],
) -> tuple[CheckResult, CheckResult]:
    """Theorem 14 balance + slice disjointness on the impl's case grid.

    The partition checks depend only on the case, so results are shared
    across implementations through ``partition_cache``; what varies per
    implementation is *which* cases are in budget.
    """
    balance_fail = None
    disjoint_fail = None
    ran = 0

    def record(kind: str, case_name: str, balance: str | None, disjoint: str | None):
        nonlocal balance_fail, disjoint_fail
        if balance is not None and balance_fail is None:
            balance_fail = f"{case_name}: {balance}"
        if disjoint is not None and disjoint_fail is None:
            disjoint_fail = f"{case_name}: {disjoint}"

    if impl.kind in ("merge", "keyed", "setop"):
        for case in mcases:
            if impl.max_elements is not None and case.total > impl.max_elements:
                continue
            ran += 1
            key = ("merge", case.name)
            if key not in partition_cache:
                part = partition_merge_path(case.a, case.b, case.p, check=False)
                partition_cache[key] = check_partition_balance(
                    case.a, case.b, case.p
                )
                partition_cache[("disjoint", case.name)] = check_slice_disjointness(
                    part
                )
            record(
                "merge",
                case.name,
                partition_cache[key],
                partition_cache[("disjoint", case.name)],
            )
    elif impl.kind == "sort":
        for case in scases:
            if impl.max_elements is not None and len(case.x) > impl.max_elements:
                continue
            ran += 1
            key = ("sort", case.name)
            if key not in partition_cache:
                ordered = np.sort(case.x, kind="stable")
                half = len(ordered) // 2
                a, b = ordered[:half], ordered[half:]
                partition_cache[key] = check_partition_balance(a, b, case.p)
                partition_cache[("disjoint-sort", case.name)] = (
                    check_slice_disjointness(
                        partition_merge_path(a, b, case.p, check=False)
                    )
                )
            record(
                "sort",
                case.name,
                partition_cache[key],
                partition_cache[("disjoint-sort", case.name)],
            )
    elif impl.kind == "kway":
        for case in kcases:
            if impl.max_elements is not None and case.total > impl.max_elements:
                continue
            ran += 1
            key = ("kway", case.name)
            if key not in partition_cache:
                partition_cache[key] = check_kway_balance(case.arrays, case.p)
            record("kway", case.name, partition_cache[key], None)

    balance = (
        CheckResult("balance", "fail", balance_fail, cases=ran)
        if balance_fail
        else CheckResult("balance", "pass", cases=ran)
    )
    disjoint = (
        CheckResult("disjoint", "fail", disjoint_fail, cases=ran)
        if disjoint_fail
        else CheckResult("disjoint", "pass", cases=ran)
    )
    return balance, disjoint


def _race_check(impl: Implementation, cases: list[MergeCase]) -> CheckResult:
    if impl.race_backend is None:
        return CheckResult(
            "races", "skip", "no partition+merge_into structure to instrument"
        )
    audited = 0
    for case in cases:
        if case.total == 0 or case.stability_probe:
            continue
        audited += 1
        findings = audited_parallel_merge(
            case.a, case.b, case.p, backend=impl.race_backend
        )
        if findings:
            first = findings[0]
            return CheckResult(
                "races",
                "fail",
                f"{case.name}: [{first.kind}] {first.detail}",
                cases=audited,
            )
        if audited >= 4:
            break
    return CheckResult("races", "pass", cases=audited)


def _unsorted_check(
    impls: list[Implementation], cases: list[MergeCase]
) -> CheckResult:
    """Every validating implementation rejects every unsorted case with
    the error of an up-front scan: ``A``'s first descent, else ``B``'s."""
    ran = 0
    for impl in impls:
        for case in cases:
            ran += 1
            expected = next(
                ((name, idx) for name, arr in (("A", case.a), ("B", case.b))
                 if (idx := first_disorder(arr)) is not None),
                None,
            )
            try:
                impl.fn(case.a, case.b, case.p)
                got = "no error"
            except NotSortedError as exc:
                if (exc.name, exc.index) == expected:
                    continue
                got = f"NotSortedError{(exc.name, exc.index)}"
            except Exception as exc:  # noqa: BLE001 - reported
                got = repr(exc)
            return CheckResult(
                "unsorted-input", "fail",
                f"{impl.name} on {case.name}: {got}, expected "
                f"NotSortedError{expected}",
                cases=ran,
            )
    return CheckResult("unsorted-input", "pass", cases=ran)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_conformance(
    tier: str = "quick",
    *,
    seed: int = DEFAULT_SEED,
    registry: dict[str, Implementation] | None = None,
    chaos: bool = False,
) -> ConformanceReport:
    """Run the full conformance battery for one tier.

    ``registry`` overrides the built-in registry (used by the mutation
    tests to inject deliberately broken implementations).

    ``chaos=True`` adds the fault-injection tier: every injectable
    implementation is additionally driven through fault-wrapped
    backends (seeded errors, stragglers, hangs, worker deaths — see
    :mod:`repro.conformance.chaos`) and must still match the oracle via
    the resilience layer; two run-level checks cover real worker-death
    recovery and the graceful-degradation chain.
    """
    cache = BackendCache()
    chaos_cache = None
    chaos_reg: dict[str, Implementation] = {}
    if chaos:
        from .chaos import ChaosBackendCache

        chaos_cache = ChaosBackendCache(seed=seed)
        chaos_reg = build_registry(tier, backends=chaos_cache)
    try:
        reg = registry if registry is not None else build_registry(tier, backends=cache)
        mcases = list(merge_cases(tier, seed))
        scases = list(sort_cases(tier, seed))
        kcases = list(kway_cases(tier, seed))

        partition_cache: dict[tuple[str, str], str | None] = {}
        reports: list[ImplementationReport] = []
        for impl in reg.values():
            checks: list[CheckResult] = []
            if impl.kind in ("merge", "keyed", "setop"):
                checks.append(_differential_merge(impl, mcases, seed))
                checks.append(_stability_check(impl, mcases, seed))
            elif impl.kind == "sort":
                checks.append(_differential_sort(impl, scases, seed))
                checks.append(
                    CheckResult("stability", "skip",
                                "implementation makes no stability promise")
                    if not impl.stable
                    else _stability_check(impl, mcases, seed)
                )
            elif impl.kind == "kway":
                checks.append(_differential_kway(impl, kcases))
                checks.append(
                    CheckResult(
                        "stability", "skip",
                        "covered by the pairwise merge registration",
                    )
                )
            else:
                raise ValueError(f"unknown implementation kind {impl.kind!r}")
            balance, disjoint = _balance_and_disjoint(
                impl, mcases, scases, kcases, partition_cache
            )
            checks.append(balance)
            checks.append(disjoint)
            checks.append(_race_check(impl, mcases))
            if chaos_cache is not None:
                from .chaos import chaos_check

                chaos_impl = chaos_reg.get(impl.name, impl)
                checks.append(
                    chaos_check(chaos_impl, chaos_cache, mcases, scases, kcases)
                )
            reports.append(ImplementationReport(impl, tuple(checks)))

        # Run-level: Proposition 13 flip-point uniqueness, brute-forced
        # on the small cases (quadratic check, so bounded inputs only).
        flip_detail = None
        flip_count = 0
        for case in mcases:
            if case.total == 0 or case.total > 64:
                continue
            flip_count += 1
            detail = check_flip_point_uniqueness(case.a, case.b)
            if detail is not None:
                flip_detail = f"{case.name}: {detail}"
                break
        run_checks = (
            CheckResult(
                "flip-point-uniqueness",
                "fail" if flip_detail else "pass",
                flip_detail or "",
                cases=flip_count,
            ),
            _unsorted_check(
                [impl for impl in reg.values() if impl.rejects_unsorted],
                list(unsorted_cases(tier, seed)),
            ),
        )
        if chaos_cache is not None:
            from .chaos import chaos_run_checks

            chaos_cache.disarm()  # run-level checks build their own faults
            run_checks = run_checks + chaos_run_checks(seed)
        return ConformanceReport(
            tier=tier,
            seed=seed,
            reports=tuple(reports),
            run_checks=run_checks,
        )
    finally:
        if chaos_cache is not None:
            chaos_cache.close()
        cache.close()


def render_report(report: ConformanceReport) -> str:
    """Human-readable table + failure details with reproducers."""
    lines: list[str] = []
    lines.append(
        f"conformance tier={report.tier} seed={report.seed} — "
        f"{len(report.reports)} implementations"
    )
    columns = ("differential", "stability", "balance", "disjoint", "races")
    if any(c.name == "chaos" for r in report.reports for c in r.checks):
        columns = columns + ("chaos",)
    header = f"{'implementation':<36} {'kind':<6} " + " ".join(
        f"{name:<12}" for name in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    marks = {"pass": "ok", "fail": "FAIL", "skip": "-", "expected-fail": "xfail"}
    for r in report.reports:
        cells = []
        for name in columns:
            try:
                c = r.check(name)
                cells.append(f"{marks[c.status]:<12}")
            except KeyError:
                cells.append(f"{'-':<12}")
        lines.append(f"{r.impl.name:<36} {r.impl.kind:<6} " + " ".join(cells))
    for c in report.run_checks:
        lines.append(
            f"[run] {c.name}: {marks[c.status]}"
            + (f" ({c.detail})" if c.detail else "")
            + f" on {c.cases} case(s)"
        )
    chaos_details = [
        f"  {r.impl.name:<36} {c.detail}"
        for r in report.reports
        for c in r.checks
        if c.name == "chaos" and c.status == "pass" and c.detail
    ]
    if chaos_details:
        lines.append("")
        lines.append("chaos recovery per implementation:")
        lines.extend(chaos_details)
    failures = [
        (r, c)
        for r in report.reports
        for c in r.checks
        if c.status == "fail"
    ] + [(None, c) for c in report.run_checks if c.status == "fail"]
    if failures:
        lines.append("")
        lines.append(f"{len(failures)} FAILING check(s):")
        for r, c in failures:
            owner = r.impl.name if r is not None else "run-level"
            lines.append(f"  {owner} :: {c.name}: {c.detail}")
            if c.mismatch is not None:
                lines.append("  minimized reproducer:")
                for ln in c.mismatch.reproducer.splitlines():
                    lines.append(f"    {ln}")
    else:
        lines.append("all checks passed")
    return "\n".join(lines)
