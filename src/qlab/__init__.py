"""A laboratory for the Hofstadter Q-recurrence Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)).

The package runs the recurrence from arbitrary initial conditions under two
spill conventions (plain, where an out-of-range reference kills the sequence,
and zero-extended, where references at or below zero read 0), derives
symbolic prefix terms Q(N+k) valid for whole ranges of identity conditions,
and predicts the complete structure of zero-extended identity sequences from
a base-5 descent on N.  A slower R/S/T recurrence system drives the forever-
growing branch of that structure and two families of provable patterns.
"""

from __future__ import annotations

from ._backend import BACKEND
from .engine import (
    GeneratedSequence,
    InitialCondition,
    QuasilinearSegment,
    SequenceStatus,
    detect_quasilinear,
    evaluate,
    format_ic,
    parse_ic,
    resolve_int_mode,
    write_bfile,
    write_csv,
)
from .errors import (
    ArithmeticOverflowError,
    DivisibilityError,
    QlabError,
    ValidationError,
)
from .predictor import (
    BehaviorTreeNode,
    PredictionReport,
    StructureProfile,
    abc_profile,
    behavior_tree,
    congruence_check,
    is_exceptional,
    predict_sequence,
    tree_locate,
    verify_against_bruteforce,
)
from .rst import (
    PatternReport,
    RSTState,
    RSTStatus,
    qc_pattern_check,
    qt_pattern_check,
    rst_compute,
)
from .symbolic import (
    AffineExpr,
    AffineTerm,
    NConstraint,
    StopReason,
    SymbolicPrefix,
    specialize,
    symbolic_extend,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflowError",
    "BACKEND",
    "BehaviorTreeNode",
    "DivisibilityError",
    "GeneratedSequence",
    "InitialCondition",
    "NConstraint",
    "PatternReport",
    "PredictionReport",
    "QlabError",
    "QuasilinearSegment",
    "RSTState",
    "RSTStatus",
    "SequenceStatus",
    "StopReason",
    "StructureProfile",
    "SymbolicPrefix",
    "AffineExpr",
    "AffineTerm",
    "ValidationError",
    "abc_profile",
    "behavior_tree",
    "congruence_check",
    "detect_quasilinear",
    "evaluate",
    "format_ic",
    "is_exceptional",
    "parse_ic",
    "predict_sequence",
    "qc_pattern_check",
    "qt_pattern_check",
    "resolve_int_mode",
    "rst_compute",
    "specialize",
    "symbolic_extend",
    "tree_locate",
    "verify_against_bruteforce",
    "write_bfile",
    "write_csv",
    "__version__",
]
