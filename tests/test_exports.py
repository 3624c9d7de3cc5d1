"""Each library module's ``__all__`` is its public API, stated once.

A guard against a half-removed or doubled export. Each module under
``src/subseqlab`` is parsed with ``ast`` and never run: a name in its
``__all__`` must be bound at its top level (by a def, a class, an
assignment or an import) and listed once. The package ``__init__``
computes its ``__all__`` from six modules' lists, so it is checked once
imported: it re-exports exactly those lists, in order, with no name from
two modules, and leaves ``output`` and ``cli`` out. A new interpreter
shows that the package loads each module only when it is first read.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import subseqlab
from subseqlab import output

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The modules whose ``__all__`` the package re-exports, in the package's order.
REEXPORTED = ("strings", "models", "expectation", "oracle", "montecarlo", "analysis")


def exported(tree) -> list[str]:
    """The literal ``__all__`` list of a module, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def defined(tree) -> set[str]:
    """Names the module's own top-level defs, classes and assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def bound(tree) -> set[str]:
    """Every name the module binds at its top level, ``__future__`` aside."""
    return defined(tree) | {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def reexported() -> list[str]:
    """The six modules' ``__all__`` lists, concatenated in package order."""
    return [name for module in REEXPORTED for name in getattr(subseqlab, module).__all__]


def twice(names: list[str]) -> list[str]:
    """Names listed more than once."""
    return sorted({name for name in names if names.count(name) > 1})


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that the module never binds, or lists twice."""
    tree = ast.parse(source)
    names = exported(tree)
    return sorted(set(names) - bound(tree)) + twice(names)


def test_the_check_finds_a_stale_export():
    source = (
        '__all__ = ["f", "K", "C", "gone", "pi", "f"]\n'
        "from math import pi\nK: int = 1\n\ndef f():\n    gone = 2\n\nclass C:\n    pass\n"
    )
    assert unbound_exports(source) == ["gone", "f"]


def test_the_check_finds_a_name_two_modules_export():
    first = ast.parse('__all__ = ["f", "g"]\ndef f(): pass\ndef g(): pass\n')
    second = ast.parse('__all__ = ["g", "h"]\nfrom .first import g\ndef h(): pass\n')
    assert twice(exported(first)) == twice(exported(second)) == []
    assert twice([*exported(first), *exported(second)]) == ["g"]


def test_modules_were_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_the_package_exports_what_it_imports():
    assert subseqlab._MODULES == REEXPORTED
    assert subseqlab.__all__ == reexported()


def test_no_name_is_exported_twice():
    assert twice(reexported()) == []


def test_every_export_is_a_package_attribute():
    assert [name for name in subseqlab.__all__ if not hasattr(subseqlab, name)] == []


def test_output_and_cli_names_stay_out_of_the_package():
    cli_defs = defined(ast.parse((PACKAGE / "cli.py").read_text()))
    public = [*output.__all__, *sorted(n for n in cli_defs if not n.startswith("_"))]
    assert {"dump_json", "main"} <= set(public)
    assert [n for n in public if n in subseqlab.__all__ or hasattr(subseqlab, n)] == []


def loaded_after(code: str) -> list[str]:
    """The ``subseqlab.*`` modules a new interpreter holds after ``code``."""
    report = "print(*sorted(m for m in sys.modules if m.startswith('subseqlab.')))"
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{report}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_no_module():
    assert loaded_after("import subseqlab") == []


def test_a_module_loads_on_first_read():
    assert loaded_after("from subseqlab import output") == ["subseqlab.output"]
    assert "subseqlab.oracle" in loaded_after("import subseqlab\nsubseqlab.oracle.tree_row")


def test_a_name_loads_its_module():
    assert loaded_after("from subseqlab import LetterString") == ["subseqlab.strings"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from subseqlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subseqlab.__all__)
    assert all(value is getattr(subseqlab, name) for name, value in namespace.items())


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        subseqlab.no_such_name
    with pytest.raises(ImportError):
        from subseqlab import no_such_name  # noqa: F401
