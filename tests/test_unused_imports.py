"""Every name a module of the package imports is used in that module, no
module imports another package module's private (_-prefixed) names, and
every private name a module defines at its top level is read there.

__init__.py is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cryalert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that nothing reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a, which every use of a.b reads
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_imports(source: str) -> list[str]:
    """_-prefixed names that source imports from a module of the package,
    by a relative import or by the package's name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cryalert"):
            names.extend(alias.name for alias in node.names if alias.name.startswith("_"))
    return sorted(names)


def unread_privates(source: str) -> list[str]:
    """_-prefixed functions, classes and constants defined at the top level
    of source that no other top-level statement reads: a helper only its
    own body calls counts as unread."""
    defined, reads = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, []).append(stmt)
        reads.append((stmt, {node.id for node in ast.walk(stmt)
                             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}))
    return sorted(name for name, stmts in defined.items()
                  if not any(name in loaded for stmt, loaded in reads if stmt not in stmts))


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path, sys\n"
              "from json import dumps as d, loads\n"
              "def f(x: loads) -> None:\n"
              "    return sys.argv\n")
    assert unused_imports(source) == ["d", "os"]


def test_modules_found():
    assert {"spectro.py", "infer_alert.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_checker_finds_package_names():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .tensor_nn import RESIZE, _interp_matrix as im\n"
              "from cryalert.wav_io import _polyphase\n"
              "from . import _private\n")
    assert private_imports(source) == ["_interp_matrix", "_polyphase", "_private"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports_across_modules(path):
    # a private name has one owner; a second user moves it or makes it public
    assert private_imports(path.read_text()) == []


def test_unread_private_checker():
    source = ("import os\n"
              "_USED = 1\n"
              "_UNUSED: int = 2\n"
              "_a, (_b, __dunder__) = 3, (4, 5)\n"
              "def _helper():\n"
              "    return _USED + _a\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else 0\n"
              "@_helper\n"
              "class _Thing:\n"
              "    _attr = os.sep\n"
              "class _Dead:\n"
              "    pass\n"
              "def public(x=_Thing):\n"
              "    return x\n")
    assert unread_privates(source) == ["_Dead", "_UNUSED", "_b", "_recursive"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_names_read_in_their_module(path):
    # a private helper with no reader is dead code a refactor left behind
    assert unread_privates(path.read_text()) == []
