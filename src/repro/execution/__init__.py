"""The execution layer between :mod:`repro.core` and :mod:`repro.backends`.

* :mod:`~repro.execution.context` — :class:`Execution`, the one call
  context every entry point runs in: backend resolution (shared pools,
  autotune reroute, resilience wrap), tracer installation, batch
  dispatch and the per-call metrics flush.
* :mod:`~repro.execution.engine` — :func:`run_segments`, the one runner
  that turns partitioned merges into a single
  :class:`~repro.backends.TaskBatch` (one fork/join barrier), so a sort
  call performs ``O(log N)`` dispatches instead of ``O(p · log N)``.
* :mod:`~repro.execution.pool` — process-wide persistent backends for
  string-named requests; worker pools are built once per host process,
  never per call.
* :mod:`~repro.execution.arena` — shared-memory staging of whole
  batches for the process backend (two blocks per batch, picklable
  offset jobs).
* :mod:`~repro.execution.autotune` — the measured per-host serial
  cutover (below it a pooled request runs serially), persisted and
  consulted for string-named backends on untraced calls.
* :mod:`~repro.execution.tuning` — the pure policy half of the tuner
  (probe samples → thresholds, host fingerprinting), shared by the
  cold-start path above and the continuous controller in
  :mod:`repro.control`.
"""

from .autotune import (
    Autotuner,
    Thresholds,
    autotune_enabled,
    clear_cache,
    get_autotuner,
)
from .tuning import (
    NEVER,
    HostFingerprint,
    ProbeSuite,
    TuningState,
    derive_thresholds,
    tuning_env,
)
from .arena import ChunkSortArena, RoundArena
from .context import Execution
from .engine import run_chunk_sorts, run_merge_round, run_segments
from .pool import close_shared_backends, is_shared, shared_backend

__all__ = [
    "Autotuner",
    "Thresholds",
    "autotune_enabled",
    "clear_cache",
    "get_autotuner",
    "NEVER",
    "HostFingerprint",
    "ProbeSuite",
    "TuningState",
    "derive_thresholds",
    "tuning_env",
    "ChunkSortArena",
    "RoundArena",
    "Execution",
    "run_chunk_sorts",
    "run_merge_round",
    "run_segments",
    "close_shared_backends",
    "is_shared",
    "shared_backend",
]
