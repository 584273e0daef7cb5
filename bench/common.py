"""Shared plumbing for the layered benchmark: paths, host record, statistics.

The benchmark runs from the root of a checkout.  It imports the program
from ``src/`` of that checkout and keeps every file it writes, apart from
the program's ``__pycache__``, under ``.bench_tmp/`` there, so a run
touches nothing outside the checkout.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_tmp"

#: Worker count of every parallel call; the host guard requires this many CPUs.
P = 2


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def make_workdir() -> Path:
    """A fresh private directory under ``.bench_tmp/`` (caller removes it)."""
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no concurrent run uses it
    except OSError:
        pass


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for a program process: this checkout's ``src``, an empty
    autotune cache of its own (so calibration is part of set-up), temp
    files under ``workdir``, and the bytecode :func:`compile_program`
    wrote, so imports read compiled modules as they do from an installed
    package, whether or not the environment lets Python write bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fd, cache = tempfile.mkstemp(prefix="autotune-", suffix=".json", dir=workdir)
    os.close(fd)
    os.unlink(cache)
    env["REPRO_AUTOTUNE_CACHE"] = cache
    env["TMPDIR"] = str(workdir)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_program(workdir: Path) -> None:
    """Write the program's bytecode (``__pycache__`` under ``src/``): a cold
    start that compiled every module from source would time the compiler,
    which no installed copy runs, and swing with the host's load."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   env=child_env(workdir), check=True, stdout=subprocess.DEVNULL)


def isolate_process(workdir: Path) -> None:
    """Apply :func:`child_env` to the current process (before importing repro)."""
    os.environ.update(child_env(workdir))
    tempfile.tempdir = str(workdir)


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def l2_bytes() -> int:
    """Per-core L2 size; 2 MiB when the host does not report it."""
    return _cache_bytes(2) or (2 << 20)


def host_record() -> dict:
    import numpy as np

    return {
        "cpus": cpus(),
        "l2_bytes": _cache_bytes(2),
        "llc_bytes": _cache_bytes(3) or _cache_bytes(2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


_THRESHOLDS = ("serial_cutover", "process_cutover", "tiny_kernel_cutover")


def cached_thresholds(env: dict[str, str]) -> dict | None:
    """The autotune thresholds a program process started with ``env`` (see
    :func:`child_env`) calibrated and stored, or ``None`` before it has."""
    try:
        with open(env["REPRO_AUTOTUNE_CACHE"]) as f:
            payload = json.load(f)
    except (OSError, ValueError):
        return None
    return {name: payload.get(name) for name in _THRESHOLDS}


def pin_autotune(runs: int = 5) -> dict:
    """Run the program's autotune calibration ``runs`` times and pin the
    median of each threshold for the rest of the process.

    One calibration can land on either side of a crossover: on a 2-CPU
    host ``serial_cutover`` has come out 65536, 262144 and "never", and
    "never" sends a 2^25-element merge to the serial backend, halving its
    speed for the whole run.  The median is the routing this host usually
    gets.  Returns every calibration and the pinned values.
    """
    from repro.execution.autotune import autotune_enabled, get_autotuner
    from repro.execution.tuning import derive_thresholds

    tuner = get_autotuner()
    seen = [derive_thresholds(tuner.probe_suite()) for _ in range(runs)]
    pinned = {name: median([getattr(t, name) for t in seen]) for name in _THRESHOLDS}
    tuner.seed(**pinned)
    return {
        "enabled": autotune_enabled(),
        **pinned,
        "calibrations": [{name: getattr(t, name) for name in _THRESHOLDS} for t in seen],
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def trim_heap() -> None:
    """Hand freed heap pages back to the OS (glibc), so a peak measured
    afterwards reflects live data rather than what set-up left behind."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


# -- statistics --------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    the samples at or below it (for fewer than ``1/(1-q)`` samples, the
    largest)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def reported(value: float, unit: str, samples: int) -> dict:
    """A measurement printed and recorded but not gated by a bound."""
    return {"value": float(value), "unit": unit, "samples": samples}
