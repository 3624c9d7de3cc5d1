"""Every exported name exists, and the package exports what it imports.

A guard against a half-removed export: each module under ``src/subseqlab``
is parsed with ``ast`` and never run. A name in a module's ``__all__`` must
be bound at the module's top level (by a def, a class, an assignment or an
import), and the package ``__init__``'s ``__all__`` must list exactly the
names it imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def exported(tree) -> list[str]:
    """The literal ``__all__`` list of a module, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def imported(tree) -> set[str]:
    """Names bound by the module's top-level imports, ``__future__`` aside."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def bound(tree) -> set[str]:
    """Every name the module binds at its top level."""
    names = imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that the module never binds, or lists twice."""
    tree = ast.parse(source)
    names = exported(tree)
    twice = sorted({name for name in names if names.count(name) > 1})
    return sorted(set(names) - bound(tree)) + twice


def test_the_check_finds_a_stale_export():
    source = (
        '__all__ = ["f", "K", "C", "gone", "pi", "f"]\n'
        "from math import pi\nK: int = 1\n\ndef f():\n    gone = 2\n\nclass C:\n    pass\n"
    )
    assert unbound_exports(source) == ["gone", "f"]


def test_modules_were_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_the_package_exports_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = exported(tree)
    assert len(names) == len(set(names))
    assert set(names) == imported(tree)
