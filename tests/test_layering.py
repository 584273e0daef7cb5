"""Layering guard: algorithms plan, the execution layer executes.

Modules under ``repro/core`` and ``repro/external`` describe *what* to
merge; backend resolution, pool lifetime and task staging belong to
:mod:`repro.execution`.  This test parses them with :mod:`ast` and
fails when one of them

* calls ``get_backend`` or ``shared_backend`` (resolve through
  :class:`repro.execution.Execution` instead);
* imports a ``_``-prefixed name from another module (share it publicly
  or keep it private);
* tests ``isinstance(..., ProcessBackend)`` (use
  :func:`repro.backends.tasks_must_pickle`).

Production code also runs exactly one merge kernel,
:func:`repro.core.sequential.merge_into`.  The Python kernels
(``merge_two_pointer``, ``merge_galloping`` and the ``KERNELS``
registry) are step-counting tools and references, so no module under
``repro/core`` (other than ``sequential.py``, which defines them),
``repro/execution``, ``repro/external`` or ``repro/serve`` may
reference them.  Package ``__init__`` modules are exempt: they only
re-export the public API.

Production code counts into one sink, the
:class:`~repro.obs.MetricsRegistry` passed as ``metrics=``.  So no
function that opens :class:`~repro.execution.Execution` (nor
``Execution`` itself) takes a ``stats`` or ``telemetry`` parameter, and
no module under ``repro/execution``, ``repro/external`` or
``repro/serve``, and no core entry-point module, references the
retired counting types (``MergeStats``, ``ExecutionTelemetry``,
``merge_stats``, ``record_merge_delta``).  The step-counting
primitives ``sequential.py``, ``merge_path.py`` and ``selection.py``
keep ``MergeStats``.

One-segment-versus-partitioned is decided in one place.  Below the
serial cutover :func:`repro.execution.context.runs_inline` answers true
and the merge runs as one segment, so no module under ``repro/core``,
``repro/external`` or ``repro/serve`` calls ``choose_backend`` or reads
``serial_cutover`` to route around it.  A production merge reaches the
kernel only through the engine: outside ``core/sequential.py``, only
``execution/engine.py`` (segment tasks and :func:`merge_whole`) calls
``merge_into`` or ``merge_into_fresh`` or hands one on as a task.

In-memory work runs in-process, and the process pool serves only the
external sort, whose tasks carry file paths and offsets.  So nothing
under ``repro`` imports ``multiprocessing.shared_memory``: no call
stages arrays in shared-memory segments for worker processes.

Runs are formed by one leaf, :func:`repro.core.sequential.sort_chunk`,
which picks the NumPy sort kind by dtype.  So outside
``core/sequential.py`` no module under ``repro/core``,
``repro/execution``, ``repro/external`` or ``repro/serve`` passes a
``kind=`` to a NumPy sort (``np.sort``, ``ndarray.sort`` or
``argsort``): a hard-coded run sort cannot come back.

Resilience counts have one writer.  ``resilience.*`` counters are
written only under ``repro/resilience``, and only
``resilience/degrade.py`` (the :class:`~repro.resilience.DegradingBackend`
chain) writes a counter named ``*.degradations`` or ``*.recoveries``,
so no other layer keeps a mirror copy of a fall or a recovery.

Supervision runs attempts on the inner backend's own workers.  So no
module under ``repro/resilience`` creates, imports or subclasses
``threading.Thread``: a thread per attempt cannot come back.  The
network chaos proxy (``netchaos.py``) is exempt: it runs its event loop
on a thread of its own and serves sockets, not task batches.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for pkg in ("core", "external") for path in (SRC / pkg).glob("*.py")
)
PYTHON_KERNELS = ("merge_two_pointer", "merge_galloping", "KERNELS")
PRODUCTION_MODULES = sorted(
    path
    for pkg in ("core", "execution", "external", "serve")
    for path in (SRC / pkg).glob("*.py")
    if path.name != "__init__.py" and path != SRC / "core" / "sequential.py"
)
ALL_MODULES = sorted(SRC.rglob("*.py"))
COUNTING_PARAMETERS = ("stats", "telemetry")
COUNTING_NAMES = (
    "MergeStats", "ExecutionTelemetry", "merge_stats", "record_merge_delta",
)
CHAIN_EVENTS = ("degradations", "recoveries")
ROUTING_NAMES = ("choose_backend", "serial_cutover")
ROUTING_FREE_MODULES = sorted(
    path for pkg in ("core", "external", "serve")
    for path in (SRC / pkg).glob("*.py")
)
KERNEL_CALLERS = ("execution/engine.py",)
KERNEL_ENTRIES = ("merge_into", "merge_into_fresh")
SORT_KIND_FREE_MODULES = sorted(
    path
    for pkg in ("core", "execution", "external", "serve")
    for path in (SRC / pkg).glob("*.py")
    if path != SRC / "core" / "sequential.py"
)
THREAD_FREE_MODULES = sorted(
    path for path in (SRC / "resilience").glob("*.py")
    if path.name != "netchaos.py"
)
STEP_COUNTERS = ("sequential.py", "merge_path.py", "selection.py")
COUNTING_FREE_MODULES = sorted(
    path
    for pkg in ("core", "execution", "external", "serve")
    for path in (SRC / pkg).glob("*.py")
    if path.name != "__init__.py"
    and not (pkg == "core" and path.name in STEP_COUNTERS)
)


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
            if name in ("get_backend", "shared_backend"):
                found.append(f"line {node.lineno}: calls {name}()")
            if (
                name == "isinstance"
                and len(node.args) == 2
                and "ProcessBackend" in ast.dump(node.args[1])
            ):
                found.append(f"line {node.lineno}: isinstance(..., ProcessBackend)")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(
                        f"line {node.lineno}: imports {alias.name} "
                        f"from {'.' * node.level}{node.module or ''}"
                    )
    return found


def _references(tree: ast.AST, banned: tuple[str, ...]) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [
            f"line {node.lineno}: references {name}"
            for name in names if name in banned
        ]
    return found


def _kernel_references(tree: ast.AST) -> list[str]:
    return _references(tree, PYTHON_KERNELS)


def _counting_references(tree: ast.AST) -> list[str]:
    return _references(tree, COUNTING_NAMES)


def _routing_references(tree: ast.AST) -> list[str]:
    return _references(tree, ROUTING_NAMES)


def _kernel_uses(tree: ast.AST) -> list[str]:
    """Every call of a kernel entry (``merge_into``,
    ``merge_into_fresh``) and every other use of the name
    (``partial(merge_into, ...)`` hands it on as a task)."""
    return [
        f"line {node.lineno}: uses a kernel entry"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in KERNEL_ENTRIES)
        or (isinstance(node, ast.Attribute) and node.attr in KERNEL_ENTRIES)
    ]


def _shared_memory_imports(tree: ast.AST) -> list[str]:
    """Every import of ``multiprocessing.shared_memory``, in any form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
            modules.append(node.module or "")
        else:
            continue
        if any(m.startswith("multiprocessing.shared_memory") for m in modules):
            found.append(f"line {node.lineno}: imports shared_memory")
    return found


def _sort_kinds(tree: ast.AST) -> list[str]:
    """Every NumPy sort call that picks its own ``kind=``."""
    return [
        f"line {node.lineno}: sorts with kind="
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None)
             or getattr(node.func, "id", None)) in ("sort", "argsort")
        and any(kw.arg == "kind" for kw in node.keywords)
    ]


def _thread_uses(tree: ast.AST) -> list[str]:
    """Every ``threading.Thread`` reference and ``Thread`` import/name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "Thread") or (
            isinstance(node, ast.Name) and node.id == "Thread"
        ):
            found.append(f"line {node.lineno}: uses Thread")
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "Thread" for alias in node.names
        ):
            found.append(f"line {node.lineno}: imports Thread")
    return found


def _counter_names(tree: ast.AST) -> list[tuple[int, str]]:
    """Names passed to ``*.counter(...)``; an f-string's fields read
    ``{}``, and a name held in a variable is not a literal write."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "counter"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            found.append((node.lineno, arg.value))
        elif isinstance(arg, ast.JoinedStr):
            found.append((node.lineno, "".join(
                part.value if isinstance(part, ast.Constant) else "{}"
                for part in arg.values
            )))
    return found


def _resilience_counters(tree: ast.AST, rel: str) -> list[str]:
    """Counter writes ``rel`` (a path under ``repro/``) may not make."""
    found = []
    for lineno, name in _counter_names(tree):
        if name.startswith("resilience.") and not rel.startswith("resilience/"):
            found.append(f"line {lineno}: writes {name}")
        elif (set(name.split(".")) & set(CHAIN_EVENTS)
              and rel != "resilience/degrade.py"):
            found.append(f"line {lineno}: writes {name}")
    return found


def _opens_execution(fn: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and "Execution" in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
        for node in ast.walk(fn)
    )


def _counting_parameters(tree: ast.AST) -> list[str]:
    """``stats``/``telemetry`` parameters of ``Execution.__init__`` and of
    every function that opens an ``Execution``."""
    entry_points = [
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _opens_execution(fn)
    ]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Execution":
            entry_points += [
                fn for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            ]
    found = []
    for fn in entry_points:
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        found += [
            f"line {fn.lineno}: {fn.name}() takes {arg.arg}="
            for arg in params if arg.arg in COUNTING_PARAMETERS
        ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_the_execution_layer(path):
    assert _violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", PRODUCTION_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_runs_the_one_kernel(path):
    assert _kernel_references(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", ROUTING_FREE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_leaves_routing_to_the_execution_layer(path):
    assert _routing_references(ast.parse(path.read_text(), str(path))) == []


def test_only_the_engine_calls_the_kernel():
    found = [
        f"{path.relative_to(SRC)} {violation}"
        for path in PRODUCTION_MODULES
        if path.relative_to(SRC).as_posix() not in KERNEL_CALLERS
        for violation in _kernel_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_nothing_stages_arrays_in_shared_memory():
    found = [
        f"{path.relative_to(SRC)} {violation}"
        for path in ALL_MODULES
        for violation in _shared_memory_imports(
            ast.parse(path.read_text(), str(path))
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "path", SORT_KIND_FREE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_forms_runs_with_the_one_leaf(path):
    assert _sort_kinds(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", COUNTING_FREE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_counts_only_into_the_registry(path):
    assert _counting_references(ast.parse(path.read_text(), str(path))) == []


def test_no_entry_point_takes_a_counting_sink():
    found = [
        f"{path.relative_to(SRC)} {violation}"
        for path in ALL_MODULES
        for violation in _counting_parameters(
            ast.parse(path.read_text(), str(path))
        )
    ]
    assert found == []


def test_only_the_chain_counts_falls_and_recoveries():
    found = [
        f"{path.relative_to(SRC)} {violation}"
        for path in ALL_MODULES
        for violation in _resilience_counters(
            ast.parse(path.read_text(), str(path)),
            path.relative_to(SRC).as_posix(),
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "path", THREAD_FREE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_supervision_starts_no_thread(path):
    assert _thread_uses(ast.parse(path.read_text(), str(path))) == []


def test_no_entry_point_chooses_a_kernel():
    import inspect

    from repro.conformance import races
    from repro.core import (
        cache_efficient_sort, merge, merge_into, natural_merge_sort,
        parallel_merge, parallel_merge_sort, segmented_parallel_merge,
    )
    from repro.core.parallel_merge import merge_partition
    from repro.execution import engine

    entry_points = (
        parallel_merge, merge, merge_partition, parallel_merge_sort,
        natural_merge_sort, cache_efficient_sort, segmented_parallel_merge,
        merge_into, engine.run_segments, engine.run_merge_round,
        engine.run_chunk_sorts, races.audited_parallel_merge,
        races.audited_batched_round,
    )
    for fn in entry_points:
        params = inspect.signature(fn).parameters
        assert not {"kernel", "base_sort", "sort_chunk"} & set(params), fn


def test_guard_catches_each_violation():
    bad = ast.parse(
        "from .parallel_merge import _TracerScope\n"
        "be = get_backend('threads')\n"
        "pool = pool_mod.shared_backend('threads', 2)\n"
        "isinstance(be, ProcessBackend)\n"
    )
    assert len(_violations(bad)) == 4
    python_kernels = ast.parse(
        "from .sequential import KERNELS, merge_galloping\n"
        "out = sequential.merge_two_pointer(a, b)\n"
        "fn = KERNELS[name]\n"
    )
    assert len(_kernel_references(python_kernels)) == 4
    routing = ast.parse(
        "name = get_autotuner().choose_backend('threads', n)\n"
        "if n < tuner.thresholds().serial_cutover:\n"
        "    pass\n"
        "from ..execution.autotune import choose_backend\n"
    )
    assert len(_routing_references(routing)) == 3
    kernel_uses = ast.parse(
        "from .sequential import merge_into\n"
        "merge_into(out, a, b)\n"
        "sequential.merge_into(out[lo:hi], a, b)\n"
        "task = partial(merge_into, out, a, b)\n"
        "task = partial(sequential.merge_into_fresh, out, a, b)\n"
        "merge_vectorized(a, b)\n"
    )
    assert len(_kernel_uses(kernel_uses)) == 4
    staging = ast.parse(
        "from multiprocessing import shared_memory\n"
        "from multiprocessing.shared_memory import SharedMemory\n"
        "import multiprocessing.shared_memory\n"
        "import multiprocessing.shared_memory as shm\n"
        "import multiprocessing\n"
        "from multiprocessing import get_context\n"
    )
    assert len(_shared_memory_imports(staging)) == 4
    sort_kinds = ast.parse(
        "run = np.sort(chunk, kind='mergesort')\n"
        "chunk.sort(kind='stable')\n"
        "order = keys.argsort(kind='stable')\n"
        "run = sort(chunk, kind=k)\n"
        "run = np.sort(chunk)\n"
        "run = sort_chunk(chunk)\n"
    )
    assert len(_sort_kinds(sort_kinds)) == 4
    counting = ast.parse(
        "from ..types import MergeStats\n"
        "tel = ExecutionTelemetry()\n"
        "sink = registry.merge_stats()\n"
        "registry.record_merge_delta(before, stats)\n"
    )
    assert len(_counting_references(counting)) == 4
    sinks = ast.parse(
        "def merge(a, b, *, stats=None):\n"
        "    with Execution(backend) as ex:\n"
        "        pass\n"
        "def sort(x, telemetry=None):\n"
        "    return context.Execution(backend)\n"
        "class Execution:\n"
        "    def __init__(self, backend, *, stats=None, telemetry=None):\n"
        "        pass\n"
        "def reference(a, b, stats=None):\n"
        "    return stats\n"
    )
    assert len(_counting_parameters(sinks)) == 4
    mirrors = ast.parse(
        "reg.counter('resilience.retries').inc()\n"
        "reg.counter(f'resilience.{key}').inc()\n"
        "reg.counter('serve.degradations').inc()\n"
        "reg.counter(f'serve.degradations.{event.kind}').inc()\n"
        "self.registry.counter('serve.recoveries').inc(2)\n"
        "reg.counter('serve.requests').inc()\n"
        "reg.counter(name).inc()\n"
    )
    assert len(_resilience_counters(mirrors, "serve/server.py")) == 5
    assert len(_resilience_counters(mirrors, "resilience/telemetry.py")) == 3
    assert _resilience_counters(mirrors, "resilience/degrade.py") == []
    threads = ast.parse(
        "import threading\n"
        "threading.Thread(target=run, daemon=True).start()\n"
        "from threading import Thread\n"
        "Thread(target=run).start()\n"
        "class Attempt(threading.Thread):\n"
        "    pass\n"
        "lock = threading.Lock()\n"
        "done = threading.Event()\n"
    )
    assert len(_thread_uses(threads)) == 4
