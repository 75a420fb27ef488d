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
from . import engine, errors, predictor, rst, symbolic
from .engine import *
from .errors import *
from .predictor import *
from .rst import *
from .symbolic import *

__version__ = "0.1.0"

# each module's __all__ declares what it adds to the package
__all__ = [
    "BACKEND",
    "__version__",
    *engine.__all__,
    *errors.__all__,
    *predictor.__all__,
    *rst.__all__,
    *symbolic.__all__,
]
