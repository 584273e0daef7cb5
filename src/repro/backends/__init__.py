"""Execution backends: how per-segment work actually runs.

The paper's Algorithm 1 is backend-agnostic — it only requires that each
processor can (a) read the shared inputs, (b) write a disjoint slice of
the shared output, and (c) hit a barrier at the end.  This package
provides four interchangeable realizations:

``SerialBackend``
    Runs segments one after the other in the calling thread.  The
    baseline for the single-thread overhead experiment (REM6PCT).
``ThreadBackend``
    ``concurrent.futures.ThreadPoolExecutor``.  True shared memory, no
    copies; numpy kernels release the GIL during their C loops so large
    vectorized segments overlap.
``ProcessBackend``
    A ``ProcessPoolExecutor`` of forked workers, for the external sort
    alone: its tasks carry file paths and offsets, and each worker reads
    and writes memory-mapped files.  In-memory merges and sorts refuse
    it and run on threads, which share the inputs without copies.
``SimulatedBackend``
    Executes segments serially while *accounting* them as parallel: it
    records per-task operation counts and reports PRAM time (max over
    processors) and work (sum).  Used to regenerate Figure 5 at paper
    scale on any host.

Use :func:`get_backend` to resolve a backend by name.
"""

from .base import (
    Backend,
    TaskBatch,
    TaskResult,
    available_backends,
    get_backend,
    innermost_backend,
    tasks_must_pickle,
)
from .serial import SerialBackend
from .threads import ThreadBackend
from .processes import ProcessBackend
from .simulated import SimulatedBackend

__all__ = [
    "Backend",
    "TaskBatch",
    "TaskResult",
    "get_backend",
    "available_backends",
    "innermost_backend",
    "tasks_must_pickle",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SimulatedBackend",
]
