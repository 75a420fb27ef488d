"""A laboratory for the Hofstadter Q-recurrence Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)).

The package runs the recurrence from arbitrary initial conditions under two
spill conventions (plain, where an out-of-range reference kills the sequence,
and zero-extended, where references at or below zero read 0), derives
symbolic prefix terms Q(N+k) valid for whole ranges of identity conditions,
and predicts the complete structure of zero-extended identity sequences from
a base-5 descent on N.  A slower R/S/T recurrence system drives the forever-
growing branch of that structure and two families of provable patterns.

Importing the package loads none of its modules: ``BACKEND``, the modules
below and each public name are imported on first access (PEP 562), and then
bound here, so that later accesses are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

# each module's __all__ declares what it adds to the package
_MODULES = ("engine", "errors", "predictor", "rst", "symbolic")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def _public() -> list[str]:
    return ["BACKEND", "__version__", *(n for m in _MODULES for n in _module(m).__all__)]


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)  # importing a submodule binds it here
    if name == "__all__":
        value = _public()
    elif name == "BACKEND":
        value = _module("_backend").BACKEND
    else:
        # a private name is in no __all__: `from qlab import _backend`
        # imports that submodule itself once this lookup fails
        owners = () if name.startswith("_") else map(_module, _MODULES)
        owner = next((m for m in owners if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_public()})
