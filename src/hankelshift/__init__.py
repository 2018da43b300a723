"""Positivity of Hankel moment blocks, hyponormal weighted shifts, atomic
representing measures, and rank-one scalings of a moment tail.

Importing the package loads none of its modules, so a command-line run
pays only for the ones it uses.  The first attribute access (a name, the
`__all__` of `import *`, or `dir()`) imports the five library modules and
binds their public names here."""

import importlib

__version__ = "0.1.0"

_MODULES = ("numkit", "hankel", "shifts", "measures", "perturbation")


def _load() -> dict:
    space = globals()
    if "__all__" not in space:
        names = []
        for name in _MODULES:
            module = importlib.import_module(f".{name}", __name__)
            space.update((public, getattr(module, public)) for public in module.__all__)
            names += module.__all__
        space["__all__"] = [*names, "__version__"]
    return space


def __getattr__(name: str):
    try:
        return _load()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(_load())
