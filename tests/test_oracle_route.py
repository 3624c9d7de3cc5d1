"""The oracle's walks have one owner.

``verify`` and ``tree-row`` pull the short strings and the tree rows from
two generators, ``oracle._short_strings`` and ``oracle._row_runs``, so the
walks and the subsequence bitset format stay in ``oracle``. Like
``test_emitter_route.py``, ``cli.py`` is parsed with ``ast`` and never run.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "subseqlab" / "cli.py"


def oracle_privates(source: str) -> set[str]:
    """The private names read off ``oracle`` or imported from it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracle":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracle"):
            names.update(alias.name for alias in node.names)
    return {name for name in names if name.startswith("_")}


def bit_count_reads(source: str) -> int:
    """How often ``bit_count`` is named, as an attribute or on its own."""
    return sum(
        getattr(node, "attr", getattr(node, "id", None)) == "bit_count"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Attribute, ast.Name))
    )


def test_the_check_finds_a_walk_outside_the_oracle():
    source = (
        "def count(levels, d):\n"
        "    grown = oracle._extend_levels(levels, 0, d)\n"
        "    return sum(map(int.bit_count, grown)) - 1\n"
    )
    assert oracle_privates(source) == {"_extend_levels"}
    assert bit_count_reads(source) == 1
    assert oracle_privates("from .oracle import _walk, tree_row\n") == {"_walk"}


def test_the_cli_reads_only_the_oracles_two_walks():
    source = CLI.read_text()
    assert oracle_privates(source) == {"_row_runs", "_short_strings"}
    assert bit_count_reads(source) == 0
