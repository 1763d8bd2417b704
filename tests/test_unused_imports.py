"""No module imports a name it never uses.

There is no linter in the offline toolchain, so this is a small ``ast`` scan
of ``src/repro`` and ``tests``.  It skips package ``__init__.py`` files
(their imports are the package's re-exports), ``from __future__`` imports
and any import statement carrying a ``# noqa`` comment (a deliberate
re-export, or an import made for its registration side effect).  A name
counts as used when it appears in the module as a bare name, in
``__all__``, or inside a string annotation.
"""

import ast
import os
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/repro", "tests")


def _modules() -> Iterator[str]:
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def _imported(tree: ast.Module, lines: List[str]) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` for every import the scan checks."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                forward = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(forward) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: str) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    used = _used(tree)
    rel = os.path.relpath(path, ROOT)
    return [
        f"{rel}:{line}: {name}"
        for line, name in _imported(tree, source.splitlines())
        if name not in used
    ]


def test_no_unused_imports():
    found = [hit for path in _modules() for hit in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from typing import List, Optional\nx: List[int] = []\n", ["Optional"]),
        ("from typing import List\ndef f(x: 'List[int]'): pass\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from a import (  # noqa: F401\n    b,\n)\n", []),
        ("from a import b as c\nb = 1\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n", ["json"]),
    ],
)
def test_scanner(tmp_path, source, expected):
    path = tmp_path / "probe.py"
    path.write_text(source)
    assert [hit.rsplit(": ", 1)[1] for hit in unused_imports(str(path))] == expected
