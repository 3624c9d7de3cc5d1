"""Output reaches stdout by one route.

``output.render_csv`` and ``output.dump_json`` are called from one place,
``cli._emit``, so no command keeps a CSV or JSON fork of its own. Like
``test_imports.py``, each module under ``src/subseqlab`` is parsed with
``ast`` and never run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subseqlab"
EMITTERS = {"render_csv", "dump_json"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def emitter_calls(source: str) -> list[tuple[str, str]]:
    """``(enclosing function, emitter)`` for each call of an emitter, by
    name or as an attribute, with ``"<module>"`` outside any function."""
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in EMITTERS:
                    calls.append((owner, name))
            visit(child, child.name if isinstance(child, FUNCTIONS) else owner)

    visit(ast.parse(source), "<module>")
    return calls


def test_the_check_finds_a_stray_emitter_call():
    source = (
        "def _emit(out):\n    render_csv()\n\n"
        "def cmd(args):\n    if args.out == 'json':\n        output.dump_json({})\n"
    )
    assert emitter_calls(source) == [("_emit", "render_csv"), ("cmd", "dump_json")]


def test_only_emit_calls_the_emitters():
    calls = sorted(
        (path.name, owner, name)
        for path in PACKAGE.glob("*.py")
        for owner, name in emitter_calls(path.read_text())
    )
    assert calls == [("cli.py", "_emit", "dump_json"), ("cli.py", "_emit", "render_csv")]
