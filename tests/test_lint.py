"""Static checks over the package source, with stdlib ast (no linter needed)."""

import ast
from pathlib import Path

import pytest

import lmdistill

PACKAGE = Path(lmdistill.__file__).resolve().parent
# __init__.py only re-exports, so its imports are its use
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name is read if it appears as an ast.Name, which covers the base of an
    attribute chain and annotations (parsed as expressions, not strings, under
    `from __future__ import annotations`). A dotted `import a.b` binds `a`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from typing import Sequence\n"
              "def f(x: Sequence) -> None:\n"
              "    return np.zeros(os.sep)\n")
    assert unused_imports(source) == ["line 4: dataclass", "line 4: field"]
