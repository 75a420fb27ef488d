"""The package's public surface: each module's ``__all__`` declares the
names that module adds to qlab, and qlab re-exports exactly those."""

from __future__ import annotations

import importlib
import inspect

import pytest

import qlab

# qlab.__all__ as it stood when each name was still listed by hand, less
# PatternReport (the pattern checkers now return PredictionReport) and less
# QuasilinearSegment and detect_quasilinear, which no command used
PUBLIC = [
    "AffineExpr", "AffineTerm", "ArithmeticOverflowError", "BACKEND", "BehaviorTreeNode",
    "DivisibilityError", "GeneratedSequence", "InitialCondition", "NConstraint",
    "PredictionReport", "QlabError", "RSTState",
    "RSTStatus", "SequenceStatus", "StopReason", "StructureProfile", "SymbolicPrefix",
    "ValidationError", "__version__", "abc_profile", "behavior_tree", "congruence_check",
    "evaluate", "format_ic", "is_exceptional", "parse_ic",
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


def test_package_import_loads_no_module(fresh_python):
    # each submodule, BACKEND and each public name is imported on first access
    code = (
        "import sys, qlab\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('qlab.')"
        " and m != 'qlab._kernel')\n"
        "print(loaded(), 'engine' in vars(qlab))\n"
        "print(qlab.engine.__name__, loaded())\n"
        "print(qlab.QlabError.__module__, qlab.BACKEND in ('compiled', 'python'))\n"
    )
    assert fresh_python(code).splitlines() == [
        "[] False",
        "qlab.engine ['qlab._backend', 'qlab._fallback', 'qlab.engine', 'qlab.errors']",
        "qlab.errors True",
    ]


def test_first_access_binds_the_name():
    assert qlab.evaluate is _module("engine").evaluate
    assert vars(qlab)["evaluate"] is qlab.evaluate


def test_dir_lists_the_public_names_and_modules():
    listed = set(dir(qlab))
    assert set(PUBLIC) <= listed
    assert set(EXPORTED) <= listed


@pytest.mark.parametrize("name", ["nope", "_nope", "cli_main", "_kernel_source"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(qlab, name)
    assert not hasattr(qlab, name)


@pytest.mark.parametrize("value", [30.0, 14.5, True, "50"])
@pytest.mark.parametrize("call", [
    lambda v: qlab.evaluate(qlab.InitialCondition((1, 1)), v),
    lambda v: qlab.InitialCondition.identity(v),
    lambda v: qlab.rst_compute(v),
    lambda v: qlab.NConstraint(v),
    lambda v: qlab.NConstraint(2, v),
    lambda v: qlab.symbolic_extend("plain", qlab.NConstraint(2), v),
    lambda v: qlab.specialize(qlab.symbolic_extend("plain", qlab.NConstraint(2), 5), v),
    lambda v: qlab.qc_pattern_check((), v, 50),
    lambda v: qlab.qc_pattern_check((), 3, v),
])
def test_integer_arguments_are_read_as_integers(call, value):
    # a float, bool or str is refused, never truncated, compared or stored as is
    with pytest.raises(qlab.ValidationError, match="is not an integer"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: qlab.InitialCondition((1, 1), "False"),
    lambda: qlab.InitialCondition((1, 1), 2),
    lambda: qlab.InitialCondition((1, 1), None),
    lambda: qlab.evaluate(qlab.InitialCondition((1, 1)), 10).term(2.0),
    lambda: qlab.evaluate(qlab.InitialCondition((1, 1)), 10).term(True),
    lambda: qlab.rst_compute(10).R(2.0),
    lambda: qlab.rst_compute(10).S(True),
    lambda: qlab.rst_compute(10).T("3"),
    lambda: qlab.SequenceStatus.died(2.5),
    lambda: qlab.SequenceStatus.ended("7"),
    lambda: qlab.SequenceStatus("died", True),
], ids=["zero-extended-str", "zero-extended-2", "zero-extended-none", "term-float", "term-bool",
        "R-float", "S-bool", "T-str", "died-float", "ended-str", "at-index-bool"])
def test_flags_and_indices_are_read_strictly(call):
    # a flag is True or False and an index an integer: nothing is truncated,
    # parsed, or read for its truth value
    with pytest.raises(qlab.ValidationError, match=r" is not (True or False|an integer)$"):
        call()


def test_strict_reads_keep_every_valid_argument():
    seq = qlab.evaluate(qlab.InitialCondition((1, 1), False), 10)
    state = qlab.rst_compute(10)
    assert seq.term(3) == 2 and state.T(3) == state.t[3]
    assert (state.R(-1), state.S(-2), state.T(-3)) == (0, 0, 0)  # a negative index reads 0
    assert qlab.SequenceStatus.died(7) == qlab.SequenceStatus("died", 7)
