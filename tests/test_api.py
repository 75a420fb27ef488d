"""The package's public surface: each module's ``__all__`` declares the
names that module adds to qlab, and qlab re-exports exactly those."""

from __future__ import annotations

import importlib
import inspect

import qlab

# qlab.__all__ as it stood when each name was still listed by hand
PUBLIC = [
    "AffineExpr", "AffineTerm", "ArithmeticOverflowError", "BACKEND", "BehaviorTreeNode",
    "DivisibilityError", "GeneratedSequence", "InitialCondition", "NConstraint",
    "PatternReport", "PredictionReport", "QlabError", "QuasilinearSegment", "RSTState",
    "RSTStatus", "SequenceStatus", "StopReason", "StructureProfile", "SymbolicPrefix",
    "ValidationError", "__version__", "abc_profile", "behavior_tree", "congruence_check",
    "detect_quasilinear", "evaluate", "format_ic", "is_exceptional", "parse_ic",
    "predict_sequence", "qc_pattern_check", "qt_pattern_check", "resolve_int_mode",
    "rst_compute", "specialize", "symbolic_extend", "tree_locate",
    "verify_against_bruteforce", "write_bfile", "write_csv",
]

# the modules that the package re-exports, and those with an __all__ of their own
EXPORTED = ("engine", "errors", "predictor", "rst", "symbolic")
DECLARING = ("_backend", "cli", *EXPORTED)


def _module(name):
    return importlib.import_module(f"qlab.{name}")


def test_public_names_are_unchanged():
    assert sorted(qlab.__all__) == PUBLIC


def test_package_exports_the_module_lists():
    exported = {name for module in EXPORTED for name in _module(module).__all__}
    assert set(qlab.__all__) == exported | {"BACKEND", "__version__"}


def test_star_import_binds_the_modules_objects():
    namespace: dict = {}
    exec("from qlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    owners = {name: module for module in DECLARING for name in _module(module).__all__}
    for name, value in namespace.items():
        owner = qlab if name == "__version__" else _module(owners[name])
        assert value is getattr(owner, name), name


def test_each_module_lists_only_what_it_defines():
    for module in DECLARING:
        for name in _module(module).__all__:
            value = getattr(_module(module), name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"qlab.{module}", (module, name)


def test_no_name_is_declared_twice():
    declared = [name for module in DECLARING for name in _module(module).__all__]
    assert len(declared) == len(set(declared))
