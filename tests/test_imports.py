"""Every library module uses each name it imports and imports nothing but
numpy and the standard library, every private module-level name and class
member is read somewhere in the package, every public top-level function
and class is referenced by some file (outside the tests, unless it is listed
as test-facing), and every name a demo imports from the package exists.

No linter ships with the project, so these checks live in the test suite.
``__init__.py`` is skipped by the import and reference checks: its imports
are the package's public names, which a re-export alone does not use.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unionsub"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# public package names and methods that no demo, benchmark or library code
# reads, only tests
TEST_FACING = {
    "CoefficientTable.raw_value": "one edge's value, in either orientation, as the README reads it",
    "grad_check": "the engine's finite-difference gradient oracle",
    "solve_transport": "the transport plan that the linprog test checks",
    "star_graph": "the hub inputs of the bound tests",
    "wl_distinguishable": "the plain 1-WL verdict of the census",
}


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


def foreign_imports(source):
    """Top-level modules imported anywhere in the source, nested imports too,
    that are neither relative, numpy nor in the standard library."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.partition(".")[0])
    return sorted(imported - {"numpy"} - sys.stdlib_module_names)


def bound_names(node):
    """Names a module- or class-level statement defines."""
    if isinstance(node, DEFS):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def reads(node, docstrings=None):
    """Loaded names and attributes and imported names under ``node``.

    Given the ids of the docstring constants to skip, every identifier in
    any other string counts too: the benchmark's tracer names the functions
    it wraps in strings.
    """
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
        elif (docstrings is not None and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and id(n) not in docstrings):
            out |= set(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources):
    """Module-level ``_name`` definitions that none of the sources reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            defined |= bound_names(node)
        read |= reads(tree)
    return sorted(n for n in defined - read if is_private(n))


def unread_private_members(sources):
    """``_name`` methods and class attributes that none of the sources reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined |= {n for node in cls.body for n in bound_names(node)}
        read |= reads(tree)
    return sorted(n for n in defined - read if is_private(n))


def docstring_ids(tree):
    """The ids of the docstring constants of a module and its definitions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *DEFS)) and node.body
            and isinstance(node.body[0], ast.Expr)}


def unreferenced_public_names(package_sources, other_sources):
    """Public top-level functions and classes of the package sources that no
    source references outside their own definition; docstrings name, not use."""
    defined, referenced = set(), set()
    for i, source in enumerate([*package_sources, *other_sources]):
        tree = ast.parse(source)
        docstrings = docstring_ids(tree)
        for node in tree.body:
            words = reads(node, docstrings)
            if i < len(package_sources) and isinstance(node, DEFS) and not is_private(node.name):
                defined.add(node.name)
                words.discard(node.name)
            referenced |= words
    return sorted(defined - referenced)


def unreferenced_public_methods(package_sources, other_sources):
    """Public methods of the package sources' classes, as Class.name, whose
    name no source reads; docstrings name, not use."""
    defined, referenced = set(), set()
    for i, source in enumerate([*package_sources, *other_sources]):
        tree = ast.parse(source)
        referenced |= reads(tree, docstring_ids(tree))
        if i < len(package_sources):
            defined |= {(cls.name, node.name) for cls in ast.walk(tree)
                        if isinstance(cls, ast.ClassDef) for node in cls.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")}
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in referenced)


def package_imports(source):
    """(module, name) of every ``from unionsub... import name`` in the source."""
    return sorted({(node.module, a.name) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.partition(".")[0] == "unionsub" for a in node.names})


def test_checker_finds_package_imports():
    source = (
        "import unionsub\nfrom unionsub import Graph, cli\n"
        "from unionsub.graphs import (Subgraph,\n    path_graph)\n"
        "from unionsubx import other\nfrom . import local\n"
        "def f():\n    from unionsub.wl import wl_refine\n"
    )
    assert package_imports(source) == [
        ("unionsub", "Graph"), ("unionsub", "cli"), ("unionsub.graphs", "Subgraph"),
        ("unionsub.graphs", "path_graph"), ("unionsub.wl", "wl_refine"),
    ]


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # demos without a golden test are never run by the suite, so a deleted
    # public name would otherwise go unnoticed; the demo itself is not run
    names = package_imports(path.read_text(encoding="utf-8"))
    assert names
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field", "os"]


def test_checker_finds_foreign_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy.linalg as la\nfrom . import graphs\n"
        "from .graphs import Graph\nfrom numpy import ndarray\n"
        "def solve():\n    from scipy.optimize import linprog\n"
        "    import networkx as nx, json\n"
    )
    assert foreign_imports(source) == ["networkx", "scipy"]


def test_checker_finds_unread_private_names():
    first = (
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _helper():\n    _local = 1\n    return _local\n"
        "def _unused():\n    return _a\n"
        "class _Hidden:\n    pass\n"
    )
    second = "from .first import _helper\nimport first\nfirst._Hidden\n"
    assert unread_private_names([first, second]) == ["_LIMIT", "_b", "_unused"]


def test_checker_finds_unread_private_members():
    source = (
        "class A:\n    __slots__ = ()\n    _LIMIT = 1\n    _stale = 2\n"
        "    def __init__(self):\n        self._stale = self._LIMIT\n"
        "    def _helper(self):\n        pass\n    def _unused(self):\n        pass\n"
    )
    assert unread_private_members([source, "A()._helper()\n"]) == ["_stale", "_unused"]


def test_checker_finds_unreferenced_public_names():
    package = (
        '"""Module docstring naming shadow."""\n'
        "def wrapped():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Imported:\n    pass\n"
        "def shadow():\n    pass\n"
    )
    other = "from pkg import Imported\nSITES = [('pkg', 'wrapped.step')]\n"
    assert unreferenced_public_names([package], [other]) == ["recursive", "shadow"]


def test_checker_finds_unreferenced_public_methods():
    package = (
        "class A:\n    def read(self):\n        pass\n"
        "    def named(self):\n        'Docstrings name, not use: named.'\n"
        "    def _private(self):\n        pass\n    def __len__(self):\n        return 0\n"
        "    @property\n    def size(self):\n        return 1\n"
    )
    other = "A().read()\nprint('size')\n"
    assert unreferenced_public_methods([package], [other]) == ["A.named"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_every_private_member_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_members(sources) == []


def sources_in(*folders):
    return [p.read_text(encoding="utf-8") for folder in folders
            for p in sorted((ROOT / folder).rglob("*.py"))]


def test_every_public_name_is_referenced():
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced_public_names(package, sources_in("demos", "perfbench", "tests")) == []


def test_names_only_tests_read_are_listed():
    # a new public name or method that only the tests read is deleted, moved
    # to the tests' helpers or listed here
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    others = sources_in("demos", "perfbench")
    assert sorted(unreferenced_public_names(package, others)
                  + unreferenced_public_methods(package, others)) == sorted(TEST_FACING)
