"""Every name a package module imports is used.

A stand-in for a linter's unused-import rule: each module under
``src/subseqlab`` is parsed with ``ast`` and never run. A module-level
import must be read somewhere in its module, and an import inside a
function somewhere in that function. ``__init__.py`` re-exports its
imports, and an import whose lines carry ``noqa`` is kept on purpose.
Likewise, a module-level function whose name starts with one underscore
must be read somewhere in the package, by name or as a module attribute,
and no module reads the environment: a run's inputs are its arguments.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(tree):
    """Each node of the tree mapped to its innermost enclosing function, or
    to the module outside any function."""
    owner = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            owner[child] = scope
            visit(child, child if isinstance(child, FUNCTIONS) else scope)

    visit(tree, tree)
    return owner


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` for each imported name its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    unused = []
    for node, scope in _scopes(tree).items():
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        read = {
            n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((name, node.lineno))
    return unused


def test_the_check_finds_a_stray_import():
    source = (
        "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\n"
        "def f():\n    import json\n    return pi\n"
    )
    assert unused_imports(source) == [("os", 1), ("tau", 3), ("json", 6)]


def test_modules_were_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def dead_helpers(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions that no source reads."""
    trees = [ast.parse(source) for source in sources]
    helpers = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, FUNCTIONS) and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in helpers if name not in read]


def test_the_check_finds_a_dead_helper():
    first = (
        "def _used(): pass\ndef _dead(): pass\ndef __getattr__(name): pass\n"
        "class C:\n    def _method(self): pass\n\ndef f():\n    def _inner(): pass\n"
        "    return _used()\n"
    )
    second = "from . import first\n\ndef _remote(): pass\n\nfirst._remote2\n_remote = 1\n"
    assert dead_helpers([first, second]) == ["_dead", "_remote"]


def test_every_private_helper_is_read():
    assert dead_helpers([path.read_text() for path in PACKAGE.glob("*.py")]) == []


ENVIRONMENT = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` for each read or import of ``os.environ``,
    ``os.environb`` or ``os.getenv``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in ENVIRONMENT]
    return sorted(found, key=lambda item: item[1])


def test_the_check_finds_an_environment_read():
    source = (
        "import os\nfrom os import getenv, path\nfrom os import environb as env\n"
        "from json import getenv as fine\nenviron = {}\n\n"
        "def f():\n    return os.environ.get('X', os.path.sep)\n\nos.getenv('Y')\n"
    )
    assert environment_reads(source) == [
        ("getenv", 2), ("environb", 3), ("environ", 8), ("getenv", 10)
    ]


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []
