"""Run ``python -m repro serve`` with the layer probe installed.

Usage: ``python bench/serve_traced.py --probe-out FILE [serve options]``.
The server runs exactly as ``python -m repro serve`` does; when it exits
(SIGTERM drains it), the partition time and every backend batch the
probe saw are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import P, use_checkout_src


def main(argv: list[str]) -> int:
    use_checkout_src()
    from layers import LayerProbe
    from repro.__main__ import main as repro_main

    # No abbreviations: "--p 2" belongs to serve, not to "--probe-out".
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--probe-out", required=True)
    ns, serve_args = parser.parse_known_args(argv)
    with LayerProbe(P) as probe:
        rc = repro_main(["serve", *serve_args])
    with open(ns.probe_out, "w") as f:
        json.dump({
            "partition_s": probe.partition_s,
            "batches": [[b.label, b.tasks, b.wall_s, b.task_s, b.workers]
                        for b in probe.batches],
        }, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
