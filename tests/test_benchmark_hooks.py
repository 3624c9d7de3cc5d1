"""The benchmark in ``perfbench/`` still finds every name it uses.

perfbench imports names from subseqlab and wraps functions where the CLI,
the oracle and the sampler look them up; renaming or dropping one of them
would break the benchmark without failing any other test. Most checks
parse the perfbench scripts with ``ast``; one runs the tracer on a small
invocation.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_traced_expect_times_the_writer_and_the_engine():
    """The per-layer output and engine metrics read these spans. A CSV
    writer that returned before rendering, or an engine the CLI stopped
    calling through its own namespace, would leave them at zero."""
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), "cli", "expect", "--engine", "matrix",
         "--probs", "1/4,1/4,1/4,1/4", "--exact", "--n", "200"],
        capture_output=True, env=env, check=True,
    )
    assert proc.stdout.count(b"\n") == 201
    mark = "@@perfbench-trace@@ "
    report = [line for line in proc.stderr.decode().splitlines() if line.startswith(mark)]
    agg = json.loads(report[-1][len(mark):])["agg"]
    for span in ("output.render_csv", "expectation.iid_matrix_expectation"):
        calls, total_s, _ = agg[span]
        assert calls >= 1 and total_s > 0, (span, agg[span])
