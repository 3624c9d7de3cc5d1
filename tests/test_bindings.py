"""Names that the package and the CLI resolve on first read.

The package loads a submodule when it or one of its names is first read,
and ``subseqlab.cli`` binds the modules a command runs together with the
names in their ``__all__``. These tests pin what such a read binds, what it
leaves unloaded and which errors it lets through.
"""

import importlib
import subprocess
import sys

import pytest

import subseqlab
from subseqlab import cli

# The modules the CLI's commands bind, in the order a name read from outside
# is looked up.
COMMAND_MODULES = (*subseqlab._MODULES, "output")


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_the_cli_resolves_every_export_of_a_command_module(module):
    home = importlib.import_module(f"subseqlab.{module}")
    assert [name for name in home.__all__ if getattr(cli, name) is not getattr(home, name)] == []


def test_a_name_no_module_exports_is_an_attribute_error_naming_it():
    """The oracle's private helpers are not exported, so the CLI binds
    neither of them."""
    for name in ("no_such_name", "_row_runs", "_extend_levels"):
        message = f"^module 'subseqlab.cli' has no attribute '{name}'$"
        with pytest.raises(AttributeError, match=message):
            getattr(cli, name)


# Reads private names on the CLI, then lists the subseqlab modules loaded.
PRIVATE_READS = """
import sys
from subseqlab import cli
assert not hasattr(cli, "_row_runs")
assert not hasattr(cli, "_no_such_name")
assert not hasattr(cli, "__path__")
print(*sorted(m for m in sys.modules if m.startswith("subseqlab.")))
"""


def test_a_private_name_read_on_the_cli_imports_no_module():
    proc = subprocess.run([sys.executable, "-c", PRIVATE_READS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["subseqlab.cli"]


def test_a_missing_import_inside_a_module_is_not_a_missing_name(monkeypatch):
    """A submodule that fails to import a module of its own passes that
    error on; only a submodule the package lacks reads as no attribute."""

    def import_module(name, package=None):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.delattr(subseqlab, "analysis", raising=False)
    monkeypatch.setattr(importlib, "import_module", import_module)
    with pytest.raises(ModuleNotFoundError) as info:
        subseqlab.analysis
    assert info.value.name == "scipy"
