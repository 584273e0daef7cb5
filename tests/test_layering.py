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


def _kernel_references(tree: ast.AST) -> list[str]:
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
            for name in names if name in PYTHON_KERNELS
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
