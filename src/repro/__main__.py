"""Command-line entry point: ``python -m repro SUBCOMMAND ...``.

Subcommands
-----------
run EXP_ID [EXP_ID ...]
    Run experiments and print their tables (``all`` for every one).
    ``--quick`` reduces sizes where an experiment distinguishes scales;
    ``--chart`` renders FIG5 as a text bar chart.
report
    Run everything and emit a Markdown report (``--quick`` supported).
selftest
    Verify every implementation on an input grid.
scorecard
    Evaluate all 14 paper claims as PASS/FAIL.
conformance
    Differential-fuzz every implementation against the oracle
    (``--quick`` | ``--full`` tiers; ``--chaos`` adds fault injection).
api
    Print the public-API index.
trace EXP_ID
    Run a traced workload and write a Chrome-trace JSON (load it at
    ``chrome://tracing`` or https://ui.perfetto.dev).  Also prints a
    flame summary, the per-worker load-balance report, and the metrics
    snapshot.  ``--out trace.json`` chooses the path.
doctor
    One-shot operability verdict: probe the host, replay the canary
    workload through the tuned path, print PASS/WARN/FAIL per SLO
    clause with the offending metric.  ``--json verdict.json`` writes
    the structured verdict; exit status 1 on any FAIL clause.
serve
    The asyncio front door: newline-delimited JSON over TCP, coalesced
    batches on the shared pools, admission control with load shedding
    and per-request deadlines.  Prints ``serving on HOST:PORT`` once
    bound (``--port 0`` picks an ephemeral port) and runs until
    interrupted.  See ``docs/serving.md``.
extsort
    Out-of-core demo: generate a dataset ``--n`` elements long, sort it
    with the SPM-planned parallel external sort under a ``--memory``
    budget (default 1/16 of ``--n``), verify bit-identity against
    ``np.sort``, and print the I/O report with measured transfers vs
    the Aggarwal–Vitter bound.  ``--report out.json`` persists the
    report; nonzero exit on mismatch or a transfer ratio past
    ``--max-transfer-ratio``.  See ``docs/external.md``.

Unknown flags are an error (exit status 2 via argparse).  For
backwards compatibility, bare experiment ids still work — ``python -m
repro FIG5 --quick`` is rewritten to ``run FIG5 --quick`` — and the
legacy flag-before-subcommand order (``--quick report``) is accepted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments.registry import EXPERIMENTS, run_experiment
from .types import ExperimentResult

#: Flags the pre-argparse era accepted anywhere on the line.
_LEGACY_FLAGS = ("--quick", "--full", "--chart", "--chaos")

_SUBCOMMANDS = (
    "run", "report", "selftest", "scorecard", "conformance", "api",
    "trace", "doctor", "serve", "extsort",
)


def _fig5_chart(result: ExperimentResult) -> str:
    from .analysis.figures import grouped_bar_chart

    groups: dict[str, dict[str, float]] = {}
    for row in result.rows:
        group = f"p={row['p']}"
        groups.setdefault(group, {})[f"{row['size_Melem']}M"] = float(
            row["model_speedup"]  # type: ignore[arg-type]
        )
    return grouped_bar_chart(groups, width=48)


def _print_listing() -> None:
    print("usage: python -m repro SUBCOMMAND ... "
          "(run | report | selftest | scorecard | conformance | api | "
          "trace | doctor | serve | extsort)\n")
    print("available experiments (python -m repro run EXP_ID ...):")
    for exp_id, (_fn, desc) in EXPERIMENTS.items():
        print(f"  {exp_id:<8} {desc}")
    print("\n  report       run everything and emit a Markdown report")
    print("  selftest     verify every implementation on an input grid")
    print("  scorecard    evaluate all 14 paper claims as PASS/FAIL")
    print("  conformance  differential-fuzz every implementation against")
    print("               the oracle (--quick | --full tiers; --chaos adds")
    print("               fault injection through the resilience layer)")
    print("  api          print the public-API index")
    print("  trace        capture a Chrome-trace of a workload "
          "(--out trace.json)")
    print("  doctor       one-shot SLO verdict for this host "
          "(--quick, --json out.json)")
    print("  serve        NDJSON-over-TCP front door "
          "(--host --port; see docs/serving.md)")
    print("  extsort      out-of-core SPM-planned parallel external sort "
          "demo (--n --memory --report out.json; see docs/external.md)")


def _normalize(argv: list[str]) -> list[str]:
    """Rewrite legacy invocations into subcommand form.

    * flags before the subcommand move after it (``--quick report`` ->
      ``report --quick``);
    * a bare experiment id (or ``all``) gets ``run`` prefixed
      (``FIG5 --quick`` -> ``run FIG5 --quick``).
    """
    flags = [a for a in argv if a in _LEGACY_FLAGS]
    rest = [a for a in argv if a not in _LEGACY_FLAGS]
    if not rest:
        return []
    head = rest[0].lower()
    if head in _SUBCOMMANDS:
        return [head] + rest[1:] + flags
    return ["run"] + rest + flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Merge Path reproduction: experiments, verification, "
                    "observability.",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run experiments and print tables")
    p_run.add_argument("ids", nargs="*", metavar="EXP_ID",
                       help="experiment ids, or 'all'")
    p_run.add_argument("--quick", action="store_true",
                       help="reduced sizes where supported (FIG5)")
    p_run.add_argument("--full", action="store_true",
                       help=argparse.SUPPRESS)
    p_run.add_argument("--chart", action="store_true",
                       help="render FIG5 as a text bar chart")

    p_report = sub.add_parser("report", help="emit the Markdown report")
    p_report.add_argument("--quick", action="store_true")
    p_report.add_argument("--full", action="store_true",
                          help=argparse.SUPPRESS)

    sub.add_parser("selftest", help="verify every implementation")
    sub.add_parser("scorecard", help="evaluate the paper-claim scorecard")
    sub.add_parser("api", help="print the public-API index")

    p_conf = sub.add_parser("conformance",
                            help="differential-fuzz against the oracle")
    p_conf.add_argument("--quick", action="store_true")
    p_conf.add_argument("--full", action="store_true")
    p_conf.add_argument("--chaos", action="store_true",
                        help="add fault injection via the resilience layer")

    p_trace = sub.add_parser(
        "trace", help="capture a Chrome-trace JSON of a traced workload")
    p_trace.add_argument("exp_id", metavar="EXP_ID",
                         help="traceable workload id (fig5, spm, sort, "
                              "cachesort, lb)")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json)")
    p_trace.add_argument("--quick", action="store_true",
                         help="smaller inputs, fewer thread counts")
    p_trace.add_argument("--full", action="store_true",
                         help=argparse.SUPPRESS)
    p_trace.add_argument("--seed", type=int, default=7)

    p_doc = sub.add_parser(
        "doctor", help="one-shot SLO verdict: probe host, replay canary")
    p_doc.add_argument("--quick", action="store_true",
                       help="smaller canary, skip the process-backend probe")
    p_doc.add_argument("--full", action="store_true",
                       help=argparse.SUPPRESS)
    p_doc.add_argument("--seed", type=int, default=7)
    p_doc.add_argument("--slo", default=None, metavar="SLO.json",
                       help="JSON file overriding the default SLO")
    p_doc.add_argument("--json", default=None, metavar="OUT.json",
                       dest="json_out",
                       help="also write the structured verdict here")
    p_doc.add_argument("--metrics-from", default=None, dest="metrics_from",
                       metavar="SNAPSHOT.json",
                       help="judge a persisted metrics window (e.g. a live "
                            "server's snapshot) instead of replaying the "
                            "canary")

    p_srv = sub.add_parser(
        "serve", help="NDJSON-over-TCP merge service (see docs/serving.md)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7207,
                       help="0 picks an ephemeral port (printed once bound)")
    p_srv.add_argument("--p", type=int, default=None,
                       help="workers for the above-cutover parallel path")
    p_srv.add_argument("--capacity", type=int, default=512,
                       help="admission budget; past it requests are shed")
    p_srv.add_argument("--max-batch", type=int, default=64,
                       dest="max_batch",
                       help="coalescer flushes at this many requests")
    p_srv.add_argument("--window-ms", type=float, default=2.0,
                       dest="window_ms",
                       help="coalescing window duration in ms")
    p_srv.add_argument("--small-cutover", type=int, default=1 << 15,
                       dest="small_cutover",
                       help="elements at or below coalesce; above run the "
                            "parallel path")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       dest="deadline_ms",
                       help="default per-request deadline when the client "
                            "sends none")
    # Accepted and ignored: the server runs no control loop, but
    # existing launch scripts still pass it.
    p_srv.add_argument("--no-control", action="store_true",
                       help=argparse.SUPPRESS)
    p_srv.add_argument("--drain-timeout", type=float, default=5.0,
                       dest="drain_timeout", metavar="SECONDS",
                       help="SIGTERM/SIGINT drain budget: in-flight "
                            "requests get this long to finish")
    p_srv.add_argument("--metrics-snapshot", default=None,
                       dest="metrics_snapshot", metavar="FILE.json",
                       help="write a final metrics snapshot here on drain "
                            "(post-mortem: doctor --metrics-from FILE.json)")
    p_srv.add_argument("--reprobe-interval", type=float, default=1.0,
                       dest="reprobe_interval", metavar="SECONDS",
                       help="background circuit-breaker re-probe cadence "
                            "(0 disables; dispatches still re-probe)")

    p_ext = sub.add_parser(
        "extsort", help="out-of-core SPM-planned parallel external sort")
    p_ext.add_argument("--n", type=int, default=1 << 20,
                       help="dataset size in elements (default 2^20)")
    p_ext.add_argument("--memory", type=int, default=None,
                       help="RAM budget M in elements (default n // 16)")
    p_ext.add_argument("--block", type=int, default=None,
                       help="I/O accounting block B in elements "
                            "(default M // 8)")
    p_ext.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: cpu count)")
    p_ext.add_argument("--backend", default="degrade",
                       help="backend name, or 'degrade' for the resilient "
                            "processes→threads→serial chain (default)")
    p_ext.add_argument("--fan-in", type=int, default=None, dest="fan_in",
                       help="runs merged per pass (default: all at once)")
    p_ext.add_argument("--seed", type=int, default=7)
    p_ext.add_argument("--directory", default=None,
                       help="spill directory (default: a temporary one)")
    p_ext.add_argument("--report", default=None, metavar="OUT.json",
                       dest="report_out",
                       help="write the JSON I/O report here")
    p_ext.add_argument("--no-verify", action="store_false", dest="verify",
                       help="skip the bit-identity check against np.sort")
    p_ext.add_argument("--max-transfer-ratio", type=float, default=None,
                       dest="max_transfer_ratio",
                       help="fail (exit 1) if measured transfers exceed "
                            "this multiple of the Aggarwal-Vitter bound")

    return parser


def _cmd_run(ns: argparse.Namespace) -> int:
    if not ns.ids:
        _print_listing()
        return 0
    ids = list(EXPERIMENTS) if ns.ids == ["all"] else [a.upper() for a in ns.ids]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment id(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known ids: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for exp_id in ids:
        kwargs: dict[str, object] = {}
        if ns.quick and exp_id == "FIG5":
            kwargs["full"] = False
        result = run_experiment(exp_id, **kwargs)
        from .analysis.tables import render_result

        print(render_result(result))
        if ns.chart and exp_id == "FIG5":
            print()
            print("Figure 5 (speedup bars, grouped by thread count):")
            print(_fig5_chart(result))
        print()
    return 0


def _cmd_trace(ns: argparse.Namespace) -> int:
    from .errors import InputError
    from .obs.capture import trace_workload
    from .obs.export import flame_summary, write_chrome_trace
    from .obs.balance import load_balance_from_trace

    try:
        capture = trace_workload(ns.exp_id, quick=ns.quick, seed=ns.seed)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_chrome_trace(capture.tracer, ns.out)
    for note in capture.notes:
        print(f"# {note}")
    print(f"wrote Chrome trace to {ns.out} "
          "(load at chrome://tracing or https://ui.perfetto.dev)\n")
    print(flame_summary(capture.tracer))
    print()
    print(load_balance_from_trace(capture.tracer).describe())
    print()
    print("metrics snapshot:")
    print(json.dumps(capture.metrics.snapshot(), indent=2))
    return 0


def _cmd_doctor(ns: argparse.Namespace) -> int:
    from .control import SLO, render_doctor, run_doctor, write_doctor_json

    slo = SLO.from_file(ns.slo) if ns.slo else None
    doc = run_doctor(slo, quick=ns.quick, seed=ns.seed,
                     metrics_from=ns.metrics_from)
    print(render_doctor(doc))
    if ns.json_out:
        write_doctor_json(doc, ns.json_out)
        print(f"\nwrote structured verdict to {ns.json_out}")
    return 0 if doc.ok else 1


def _cmd_extsort(ns: argparse.Namespace) -> int:
    import os
    import tempfile

    import numpy as np

    from .errors import InputError
    from .external import external_sort_file
    from .obs.metrics import MetricsRegistry

    n = ns.n
    if n < 0:
        print("error: --n must be >= 0", file=sys.stderr)
        return 2
    memory = ns.memory if ns.memory is not None else max(1, n // 16)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = ns.directory or tmp
        if not os.path.isdir(workdir):
            print(f"error: directory {workdir!r} does not exist",
                  file=sys.stderr)
            return 2
        in_path = os.path.join(workdir, "extsort-input.npy")
        out_path = os.path.join(workdir, "extsort-sorted.npy")
        # Generate the dataset straight into a memmap, one memory-budget
        # chunk at a time — the driver never holds more than M elements.
        rng = np.random.default_rng(ns.seed)
        data = np.lib.format.open_memmap(
            in_path, mode="w+", dtype=np.int64, shape=(n,)
        )
        for lo in range(0, n, memory):
            hi = min(n, lo + memory)
            data[lo:hi] = rng.integers(
                np.iinfo(np.int64).min // 2, np.iinfo(np.int64).max // 2,
                size=hi - lo, dtype=np.int64,
            )
        data.flush()
        del data

        if ns.backend == "degrade":
            from .resilience import DegradingBackend

            backend = DegradingBackend(
                ("processes", "threads", "serial"),
                max_workers=ns.workers,
            )
        else:
            backend = ns.backend
        registry = MetricsRegistry()
        try:
            final, report = external_sort_file(
                in_path,
                memory_elements=memory,
                directory=workdir,
                out_path=out_path,
                fan_in=ns.fan_in,
                block_elements=ns.block,
                backend=backend,
                workers=ns.workers,
                metrics=registry,
            )
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            if ns.backend == "degrade":
                backend.close()

        doc = dict(report.to_dict())
        doc["budget_multiple"] = round(n / memory, 2) if memory else None
        status = 0
        if ns.verify:
            expected = np.sort(np.load(in_path, mmap_mode="r"), kind="stable")
            got = np.load(final.path, mmap_mode="r")
            ok = bool(
                len(got) == n and np.array_equal(expected, np.asarray(got))
            )
            doc["verified"] = ok
            if not ok:
                print("FAIL: output does not match np.sort", file=sys.stderr)
                status = 1
        if (
            ns.max_transfer_ratio is not None
            and report.transfer_ratio is not None
            and report.transfer_ratio > ns.max_transfer_ratio
        ):
            print(
                f"FAIL: transfer ratio {report.transfer_ratio:.2f} exceeds "
                f"--max-transfer-ratio {ns.max_transfer_ratio:g}",
                file=sys.stderr,
            )
            status = 1
        print(json.dumps(doc, indent=2))
        if ns.report_out:
            with open(ns.report_out, "w", encoding="utf-8") as fh:
                json.dump({"schema": "repro-extsort/1", **doc}, fh, indent=2)
                fh.write("\n")
            print(f"wrote I/O report to {ns.report_out}")
        return status


def _cmd_serve(ns: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import MergeServer, ServeConfig

    config = ServeConfig(
        host=ns.host,
        port=ns.port,
        p=ns.p,
        capacity=ns.capacity,
        max_batch=ns.max_batch,
        window_s=ns.window_ms / 1000.0,
        small_cutover=ns.small_cutover,
        default_deadline_ms=ns.deadline_ms,
        drain_timeout_s=ns.drain_timeout,
        metrics_snapshot=ns.metrics_snapshot,
        reprobe_interval_s=ns.reprobe_interval,
    )

    async def run() -> int:
        server = MergeServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        signals_seen: list[int] = []

        def on_signal(signum: int) -> None:
            signals_seen.append(signum)
            stopping.set()

        installed: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, on_signal, signum)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: Ctrl-C still lands as KeyboardInterrupt
        # The smoke harness and docs rely on this exact line.
        print(f"serving on {server.host}:{server.port}", flush=True)
        serve_task = loop.create_task(server.serve_forever())
        try:
            await stopping.wait()
            name = (signal.Signals(signals_seen[0]).name
                    if signals_seen else "signal")
            print(f"{name}: draining (up to "
                  f"{config.drain_timeout_s:g}s)...", flush=True)
            clean = await server.drain()
            if config.metrics_snapshot:
                print(f"metrics snapshot: {config.metrics_snapshot}",
                      flush=True)
            print("drain "
                  + ("complete" if clean else "timed out with work in flight"),
                  flush=True)
            return 0 if clean else 1
        finally:
            serve_task.cancel()
            try:
                await serve_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            for signum in installed:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _normalize(argv)
    if not argv:
        _print_listing()
        return 0

    ns = _build_parser().parse_args(argv)

    if ns.command == "run":
        return _cmd_run(ns)
    if ns.command == "report":
        from .analysis.report import generate_report

        print(generate_report(quick=ns.quick))
        return 0
    if ns.command == "selftest":
        from .selftest import run_selftest

        failures = run_selftest()
        return 1 if failures else 0
    if ns.command == "scorecard":
        from .scorecard import evaluate_claims, render_scorecard

        results = evaluate_claims()
        print(render_scorecard(results))
        return 0 if all(ok for _, ok in results) else 1
    if ns.command == "conformance":
        from .conformance import render_report, run_conformance

        report = run_conformance("full" if ns.full else "quick",
                                 chaos=ns.chaos)
        print(render_report(report))
        return 0 if report.ok else 1
    if ns.command == "api":
        from .apidoc import render_api_index

        print(render_api_index())
        return 0
    if ns.command == "trace":
        return _cmd_trace(ns)
    if ns.command == "doctor":
        return _cmd_doctor(ns)
    if ns.command == "serve":
        return _cmd_serve(ns)
    if ns.command == "extsort":
        return _cmd_extsort(ns)
    _print_listing()  # pragma: no cover - unreachable via _normalize
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
