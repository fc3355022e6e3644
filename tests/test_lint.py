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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (`_x`, not dunder) that no module reads.

    A name is read where any module has it as an ast.Name load, as an
    attribute (`module._x`), or as an imported name (`from .m import _x`).
    Each dead name is reported at the line that first binds it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            bound.setdefault(name.id, node.lineno)
        dead += [f"{module} line {line}: {name}" for name, line in bound.items()
                 if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                 and name not in read]
    return dead


def test_package_reads_every_private_module_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_catches_what_it_should():
    a = ("__all__ = ['f']\n"
         "_USED = 3\n"
         "_DEAD, _ALSO_DEAD = 1, 2\n"
         "def _helper():\n"
         "    return _USED\n"
         "def _imported(): pass\n"
         "def _by_attribute(): pass\n"
         "def _dead(): pass\n"
         "class _DeadClass: pass\n"
         "def f():\n"
         "    return _helper()\n")
    b = ("from .a import _imported\n"
         "from . import a\n"
         "a._by_attribute()\n"
         "_stored: int = 0\n"
         "_stored = 1\n")
    assert unread_private_names({"a.py": a, "b.py": b}) == [
        "a.py line 3: _DEAD", "a.py line 3: _ALSO_DEAD", "a.py line 8: _dead",
        "a.py line 9: _DeadClass", "b.py line 4: _stored"]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes that no module reads.

    A name is read where any module has it as an ast.Name load or as an
    imported name (`from .m import f`). The sources passed exclude
    `__init__.py`, whose re-exports are not a use; an attribute (`m.f`) is not
    a read, so a name that only tests or `lmdistill.f` reach is reported.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name for alias in node.names)
    return [f"{module} line {node.lineno}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_package_reads_every_public_module_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_public_names(sources) == []


def test_unread_public_name_check_catches_what_it_should():
    a = ("def used(): pass\n"
         "def imported(): pass\n"
         "def by_attribute(): pass\n"
         "def dead(): pass\n"
         "class Dead: pass\n"
         "def _private(): pass\n"
         "def f():\n"
         "    return used()\n")
    b = ("from .a import imported\n"
         "from . import a\n"
         "a.by_attribute()\n"
         "class Used: pass\n"
         "x: Used = None\n")
    assert unread_public_names({"a.py": a, "b.py": b}) == [
        "a.py line 3: by_attribute", "a.py line 4: dead", "a.py line 5: Dead",
        "a.py line 7: f"]
