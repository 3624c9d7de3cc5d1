"""The benchmark in ``perfbench/`` still finds every name it uses.

perfbench imports names from subseqlab and wraps functions where the CLI,
the oracle and the sampler look them up; renaming or dropping one of them
would break the benchmark without failing any other test. These checks
parse the perfbench scripts with ``ast`` and never run them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(PERFBENCH.glob("*.py"))
}


def _subseqlab_imports(tree):
    """``(module, name)`` for each ``from subseqlab... import name`` and
    each ``import subseqlab.module.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "subseqlab":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                if module.split(".")[0] == "subseqlab":
                    yield module, name


def _resolve(module: str, name: str):
    """What ``from module import name`` binds: an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _traced_targets():
    """``(span, owner names, attribute)`` for each entry of traced.TARGETS."""
    for node in TREES["traced.py"].body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            for entry in node.value.elts:
                span, owners, attr = entry.elts[:3]
                yield span.value, tuple(o.id for o in owners.elts), attr.value


IMPORTS = sorted(
    {(file, mod, name) for file, tree in TREES.items() for mod, name in _subseqlab_imports(tree)}
)
TARGETS = list(_traced_targets())


def test_perfbench_was_parsed():
    assert "traced.py" in TREES
    assert len(IMPORTS) >= 10
    assert len(TARGETS) >= 10


@pytest.mark.parametrize(
    "file, module, name", IMPORTS, ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS]
)
def test_imported_names_resolve(file, module, name):
    try:
        _resolve(module, name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{file} imports {name} from {module}: {exc}")


@pytest.mark.parametrize("span, owners, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_targets_are_callable(span, owners, attr):
    """traced.py looks each owner up among its own subseqlab imports, then
    replaces ``owner.attr`` with a timing wrapper."""
    bound = {name: (mod, name) for mod, name in _subseqlab_imports(TREES["traced.py"])}
    for owner_name in owners:
        owner = _resolve(*bound[owner_name])
        assert callable(getattr(owner, attr, None)), f"{span}: {owner_name}.{attr} is not callable"
