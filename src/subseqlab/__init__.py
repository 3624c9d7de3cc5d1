"""Distinct-subsequence counting and random-string expectation toolkit.

Fast exact counting of distinct subsequences, brute-force oracles, expected
counts for random strings (the binary closed form, and one recurrence that
serves IID letters over any alphabet and the two-state Markov chain),
reproducible Monte Carlo estimation, and the root-solving analysis around
expected pattern-occurrence counts.

Each module's ``__all__`` is its public API, and the package re-exports
those lists unchanged; ``output`` and ``cli`` stay out of the package
namespace. Importing the package loads none of the modules, and names
resolve from ``_MODULES`` alone: a module's name imports that module, and
any other public name imports the modules in order until one lists it in
its ``__all__``.
"""

__version__ = "0.1.0"

# The modules whose ``__all__`` the package re-exports, in this order.
_MODULES = ("strings", "models", "expectation", "oracle", "montecarlo", "analysis")


def __getattr__(name: str):
    import importlib

    modules = (importlib.import_module(f"{__name__}.{module}") for module in _MODULES)
    if name in (*_MODULES, "cli", "output"):
        value = importlib.import_module(f"{__name__}.{name}")
    elif name == "__all__":
        value = [n for module in modules for n in module.__all__]
    elif name.startswith("_") or (  # a private or dunder probe imports nothing
        home := next((module for module in modules if name in module.__all__), None)
    ) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        value = getattr(home, name)
    globals()[name] = value
    return value
