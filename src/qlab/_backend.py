"""Kernel selection: compiled extension when built, pure Python otherwise."""

from __future__ import annotations

import sys

from . import _fallback
from ._fallback import (
    INT64_MAX,
    INT64_MIN,
    STATUS_ALIVE,
    STATUS_DIED,
    STATUS_ENDED,
    STATUS_OVERFLOW,
)

try:
    from . import _kernel  # type: ignore[no-redef]
except ImportError:
    _kernel = None

BACKEND = "compiled" if _kernel is not None else "python"

__all__ = [
    "BACKEND",
    "INT64_MAX",
    "INT64_MIN",
    "STATUS_ALIVE",
    "STATUS_DIED",
    "STATUS_ENDED",
    "STATUS_OVERFLOW",
    "q_check",
    "q_generate",
    "rst_generate",
]


def q_generate(prefix, zero_extended: bool, max_terms: int, mode: str):
    """Dispatch to the kernel for ``mode``.

    Exact mode always runs the Python generator on unbounded integers;
    fast64 prefers the compiled kernel.  Returns ``(terms, status, at)``
    with ``terms`` a list of ints on either path.
    """
    if mode == "exact":
        return _fallback.q_generate(prefix, zero_extended, max_terms, checked=False)
    if _kernel is not None:
        # No list can be longer than sys.maxsize, so clamping changes no result.
        return _kernel.q_generate(prefix, zero_extended, min(max_terms, sys.maxsize))
    return _fallback.q_generate(prefix, zero_extended, max_terms, checked=True)


def q_check(prefix, zero_extended: bool, tiles, max_terms: int):
    """Run the recurrence and compare it with the prediction ``tiles``, as
    _fallback.q_check does unchecked: always the exact answer.  It comes
    from the compiled kernel when int64 decides every term, and from the
    Python reference when the kernel is not built, a prefix term lies
    outside int64, or the kernel reports an overflow."""
    if _kernel is not None:
        try:
            check = _kernel.q_check(prefix, zero_extended, tiles, min(max_terms, sys.maxsize))
        except OverflowError:  # a prefix term outside int64
            pass
        else:
            if check[2] != STATUS_OVERFLOW:
                return check
    return _fallback.q_check(prefix, zero_extended, tiles, max_terms, checked=False)


def rst_generate(n_max: int):
    """The R/S/T tables through ``n_max``, as _fallback.rst_generate returns
    them: from the compiled kernel when it is built and every value fits
    int64, from the Python reference otherwise."""
    if _kernel is not None:
        # No tuple can be longer than sys.maxsize, so clamping changes no result.
        tables = _kernel.rst_generate(min(n_max, sys.maxsize))
        if tables is not None:  # None: a value would overflow int64
            return tables
    return _fallback.rst_generate(n_max)
