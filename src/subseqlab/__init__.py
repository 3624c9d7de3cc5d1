"""Distinct-subsequence counting and random-string expectation toolkit.

Fast exact counting of distinct subsequences, brute-force oracles, expected
counts for random strings (the binary closed form, and one recurrence that
serves IID letters over any alphabet and the two-state Markov chain),
reproducible Monte Carlo estimation, and the root-solving analysis around
expected pattern-occurrence counts.

Each module's ``__all__`` is its public API, and the package re-exports
those lists unchanged; ``output`` and ``cli`` stay out of the package
namespace. Importing the package loads none of the modules: a submodule,
a re-exported name or ``__all__`` loads what it needs on first access.
"""

__version__ = "0.1.0"

# The modules whose ``__all__`` the package re-exports, in this order.
_MODULES = ("strings", "models", "expectation", "oracle", "montecarlo", "analysis")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for module in _MODULES for n in _load(module).__all__]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        value = _load(name) or _exported(name)
    globals()[name] = value
    return value


def _load(module: str):
    """The submodule ``module``, imported on first use, or None if there is none."""
    import importlib

    try:
        return importlib.import_module(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{module}":
            raise
        return None


def _exported(name: str):
    """``name`` from the first of _MODULES whose ``__all__`` lists it."""
    for module in _MODULES:
        home = _load(module)
        if name in home.__all__:
            return getattr(home, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
