"""Every library module uses each name it imports, and every private
module-level name is read somewhere in the package.

No linter ships with the project, so these checks live in the test suite.
``__init__.py`` is skipped by the import check: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unionsub"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_names(sources):
    """Module-level ``_name`` definitions that none of the sources reads.

    A read is a loaded name, an attribute, or an imported name.
    """
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field", "os"]


def test_checker_finds_unread_private_names():
    first = (
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _helper():\n    _local = 1\n    return _local\n"
        "def _unused():\n    return _a\n"
        "class _Hidden:\n    pass\n"
    )
    second = "from .first import _helper\nimport first\nfirst._Hidden\n"
    assert unread_private_names([first, second]) == ["_LIMIT", "_b", "_unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
