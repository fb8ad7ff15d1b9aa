"""Every name a module of the package imports is used in that module, and
no module imports another package module's private (_-prefixed) names.

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
