"""The serve-smoke soak: a live server, real load, a doctor verdict.

CI's ``serve-smoke`` job runs this script.  It:

1. starts ``python -m repro serve --port 0`` as a subprocess and parses
   the bound port off its ``serving on HOST:PORT`` line;
2. drives the deterministic load generator against it for ~10 seconds
   (many tiny merges, occasional large sorts, some top-k), checking
   every response bit-for-bit against the serial oracle;
3. pulls the server's metrics snapshot over the wire (the ``metrics``
   op) and writes it to ``serve-metrics.json``;
4. judges that live-traffic window with ``python -m repro doctor
   --slo benchmarks/serve_slo.json --metrics-from ...`` and writes the
   ``repro-doctor/1`` verdict to ``serve-doctor.json``.

Two hardening modes stack on top:

``--chaos``
    Interposes a seeded :class:`repro.resilience.ChaosProxyThread`
    between the load generator and the server (resets, corrupted
    request bytes, latency jitter, slowloris trickles).  The gate
    tightens in the only way that matters: transport casualties are
    expected, but **zero responses may diverge from the oracle** and
    the soak must still land successful responses.

``--sigterm-after N``
    Sends the server SIGTERM ``N`` seconds into the soak, while load is
    in flight.  Gates: the server exits 0 with ``drain complete`` on
    stdout, the final ``--metrics-snapshot`` file it flushed is
    doctor-readable, and nothing the load generator got back was wrong.

Exit status is non-zero on any incorrect response, any gate miss, or a
FAIL doctor verdict — the job gates on it.

Run locally::

    PYTHONPATH=src python benchmarks/serve_smoke.py --duration 10
    PYTHONPATH=src python benchmarks/serve_smoke.py --duration 8 --chaos
    PYTHONPATH=src python benchmarks/serve_smoke.py --duration 8 \\
        --sigterm-after 4
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BANNER = re.compile(r"serving on (\S+):(\d+)")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def start_server(
    python: str, extra_args: list[str] | None = None
) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [python, "-m", "repro", "serve", "--port", "0",
         *(extra_args or [])],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(REPO),
        env=_env(),
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before binding (rc={proc.poll()})"
            )
        sys.stdout.write(f"[server] {line}")
        match = BANNER.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise RuntimeError("server did not print its banner within 60s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="soak duration in seconds")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--chaos", action="store_true",
                        help="route the load through a seeded fault-"
                             "injecting TCP proxy")
    parser.add_argument("--chaos-seed", type=int, default=1729)
    parser.add_argument("--sigterm-after", type=float, default=0.0,
                        help="SIGTERM the server this many seconds into "
                             "the soak (0 = never); gates on a clean "
                             "drain and a doctor-readable final snapshot")
    parser.add_argument("--out-dir", default=".",
                        help="where serve-metrics.json / serve-doctor.json "
                             "land")
    ns = parser.parse_args()

    sys.path.insert(0, str(REPO / "src"))
    from repro.serve.client import request_sync
    from repro.workloads.loadgen import LoadSpec, run_load_sync

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final_snapshot = out_dir / "serve-final.json"
    server_args: list[str] = []
    if ns.sigterm_after > 0:
        server_args += ["--drain-timeout", "20",
                        "--metrics-snapshot", str(final_snapshot)]
    server, host, port = start_server(sys.executable, server_args)

    proxy = None
    target_host, target_port = host, port
    failures: list[str] = []
    server_rc: int | None = None
    try:
        if ns.chaos:
            from repro.resilience import ChaosProxyThread, ChaosSpec

            spec = ChaosSpec(
                seed=ns.chaos_seed,
                reset_rate=0.02, corrupt_rate=0.03,
                delay_rate=0.05, delay_s=0.002,
                slowloris_rate=0.02, slowloris_chunk=64,
                slowloris_delay_s=0.001,
            )
            proxy = ChaosProxyThread(host, port, spec=spec).start()
            target_host, target_port = proxy.host, proxy.port
            print(f"chaos proxy on {proxy.host}:{proxy.port} "
                  f"(seed={ns.chaos_seed})")

        load = LoadSpec(
            clients=ns.clients,
            requests_per_client=50,
            seed=20260808,
            small_max=256,
            large_every=40,
            large_n=150_000,
            topk_every=9,
            pipeline=8,
            duration_s=ns.duration,
            # under chaos a lost frame stalls a pipelined reader; keep
            # the stall budget short so the soak's tail stays bounded
            recv_timeout_s=10.0 if ns.chaos else 30.0,
        )

        if ns.sigterm_after > 0:
            holder: dict[str, object] = {}

            def soak() -> None:
                holder["report"] = run_load_sync(
                    target_host, target_port, load)

            thread = threading.Thread(target=soak)
            thread.start()
            time.sleep(ns.sigterm_after)
            print(f"sending SIGTERM at t={ns.sigterm_after}s "
                  "with load in flight")
            server.send_signal(signal.SIGTERM)
            try:
                server_rc = server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                failures.append("server did not exit within 60s of SIGTERM")
            thread.join(timeout=120)
            report = holder.get("report")
            if report is None:
                failures.append("load generator never finished")
        else:
            report = run_load_sync(target_host, target_port, load)

        if report is not None:
            print("load report:", json.dumps(report.summary(), indent=2))

        if ns.sigterm_after == 0:
            # scrape straight from the server (never through the chaos
            # proxy: the scrape is measurement, not traffic under test)
            snapshot = request_sync(
                host, port, {"id": "smoke", "op": "metrics"}, timeout=60.0
            )["result"]
            metrics_path = out_dir / "serve-metrics.json"
            metrics_path.write_text(
                json.dumps({"schema": "repro-serve-metrics/1",
                            "load": report.summary(),
                            "metrics": snapshot}, indent=2) + "\n"
            )
            print(f"wrote {metrics_path}")
        else:
            metrics_path = final_snapshot  # the server flushed it dying
    finally:
        if proxy is not None:
            proxy.stop()
            print("chaos stats:", json.dumps(proxy.stats))
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    if report is not None:
        if report.incorrect:
            failures.append(f"{report.incorrect} responses diverged from "
                            "the serial oracle")
        if report.ok == 0:
            failures.append("no successful responses at all")
        if not ns.chaos and ns.sigterm_after == 0 and report.errors:
            # under chaos / mid-drain, transport casualties are the
            # point; on a clean wire they are a failure
            failures.append(f"{report.errors} internal errors")

    if ns.chaos and proxy is not None:
        if sum(proxy.stats.values()) == 0:
            failures.append("chaos proxy injected no faults (vacuous soak)")

    if ns.sigterm_after > 0:
        tail = server.stdout.read() if server.stdout else ""
        if tail:
            for line in tail.splitlines():
                print(f"[server] {line}")
        if server_rc != 0:
            failures.append(f"server exit code {server_rc}, wanted 0")
        if "drain complete" not in tail:
            failures.append("server never printed 'drain complete'")
        if not metrics_path.exists():
            failures.append(f"final snapshot {metrics_path} was not written")

    if metrics_path.exists():
        doctor = subprocess.run(
            [sys.executable, "-m", "repro", "doctor", "--quick",
             "--slo", str(REPO / "benchmarks" / "serve_slo.json"),
             "--metrics-from", str(metrics_path),
             "--json", str(out_dir / "serve-doctor.json")],
            cwd=str(REPO),
            env=_env(),
        )
        if doctor.returncode != 0:
            failures.append("doctor verdict has FAIL clauses")

    if failures:
        print("SERVE SMOKE FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    mode = (" under chaos" if ns.chaos
            else " through SIGTERM drain" if ns.sigterm_after > 0 else "")
    print(f"serve smoke OK{mode}: {report.ok}/{report.sent} responses "
          "correct, doctor verdict FAIL-free")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
