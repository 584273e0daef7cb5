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
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for pkg in ("core", "external") for path in (SRC / pkg).glob("*.py")
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_the_execution_layer(path):
    assert _violations(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_violation():
    bad = ast.parse(
        "from .parallel_merge import _TracerScope\n"
        "be = get_backend('threads')\n"
        "pool = pool_mod.shared_backend('threads', 2)\n"
        "isinstance(be, ProcessBackend)\n"
    )
    assert len(_violations(bad)) == 4
