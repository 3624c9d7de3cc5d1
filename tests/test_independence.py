"""The oracle and the expectation engine read separate letter tables.

The engine runs over ``letter_source()`` and the oracle over
``letter_rows()``, so an error in either table shows up as a disagreement
between them. These checks parse the source with ``ast`` and never run it:
``oracle.py`` names no ``letter_source``, and no model's ``letter_source``
is built from its ``letter_rows``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"


def names(node) -> set[str]:
    """Every variable and attribute name used under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def method(tree, cls: str, name: str) -> ast.FunctionDef:
    (klass,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    (fn,) = [n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_the_check_sees_names_and_attributes():
    tree = ast.parse(
        "class M:\n    def letter_source(self):\n        return self.letter_rows()\n"
        "# letter_source\nx = 'letter_source'\n"
    )
    assert "letter_rows" in names(method(tree, "M", "letter_source"))
    assert "letter_source" not in names(tree.body[1])


def test_the_oracle_never_reads_the_letter_source():
    assert "letter_source" not in names(ast.parse((PACKAGE / "oracle.py").read_text()))


@pytest.mark.parametrize("cls", ["IIDModel", "MarkovModel"])
def test_letter_sources_do_not_read_the_letter_rows(cls):
    tree = ast.parse((PACKAGE / "models.py").read_text())
    assert "letter_rows" not in names(method(tree, cls, "letter_source"))
