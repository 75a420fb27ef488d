"""Kernel selection: compiled extension when built, pure Python otherwise.

Both backends hand back the same types, and this module only chooses
which one runs.  Terms and R/S/T tables whose values all fit int64 are one
``array('q')`` each, filled in place by the compiled kernel and by the
Python reference alike; only an exact run that goes past int64 comes back
as a list of Python ints.  The compiled kernel reads a table only from an
int64 buffer; whatever it declines or cannot decide in int64, the Python
reference answers.
"""

from __future__ import annotations

import sys

from . import _fallback
from ._fallback import STATUS_ALIVE, STATUS_DIED, STATUS_ENDED, STATUS_OVERFLOW

try:
    from . import _kernel  # type: ignore[no-redef]
except ImportError:
    _kernel = None

BACKEND = "compiled" if _kernel is not None else "python"

__all__ = ["BACKEND", "format_rows", "q_check", "q_generate", "rst_generate"]


def q_generate(prefix, zero_extended: bool, max_terms: int, exact: bool):
    """Extend ``prefix`` as _fallback.q_generate does, checked unless
    ``exact``; returns ``(terms, status, at)`` with ``terms`` an
    ``array('q')``, or a list of ints for an exact run past int64.

    ``prefix`` is a sequence of ints, a ``range`` among them: the compiled
    kernel reads a range whose start and step fit int64 from those two and
    its length, with no int per term, and answers for it as for its tuple.
    The compiled kernel runs first whenever it is built.  A term outside
    int64 ends its run with STATUS_OVERFLOW at that term's index; an exact
    run then goes on in Python from the terms before it, or from the whole
    prefix when the term is one of the prefix's own.
    """
    if _kernel is None:
        return _fallback.q_generate(prefix, zero_extended, max_terms, checked=not exact)
    # No array can be longer than sys.maxsize, so clamping changes no result.
    terms, status, at = _kernel.q_generate(prefix, zero_extended, min(max_terms, sys.maxsize))
    if status == STATUS_OVERFLOW and exact:
        # the exact run recomputes the term that left int64, so it ends as a list
        start = terms if at > len(prefix) else prefix
        return _fallback.q_generate(start, zero_extended, max_terms, checked=False)
    return terms, status, at


def q_check(prefix, zero_extended: bool, tiles, max_terms: int):
    """Run the recurrence and compare it with the prediction ``tiles``, as
    _fallback.q_check does unchecked: always the exact answer.  It comes
    from the compiled kernel when int64 decides every term, and from the
    Python reference when the kernel is not built or reports an overflow:
    of a prefix term, of a term of the run or of a predicted value.
    ``prefix`` is read as q_generate reads it: ``verify`` and ``scan`` pass
    ``range(1, N + 1)``, which the kernel reads without an int per term."""
    if _kernel is not None:
        check = _kernel.q_check(prefix, zero_extended, tiles, min(max_terms, sys.maxsize))
        if check[2] != STATUS_OVERFLOW:
            return check
    return _fallback.q_check(prefix, zero_extended, tiles, max_terms, checked=False)


def rst_generate(n_max: int):
    """The R/S/T tables through ``n_max`` as _fallback.rst_generate returns
    them, three ``array('q')``: from the compiled kernel when it is built
    and every value fits int64, from the Python reference otherwise."""
    if _kernel is not None:
        # No array can be longer than sys.maxsize, so clamping changes no result.
        tables = _kernel.rst_generate(min(n_max, sys.maxsize))
        if tables is not None:  # None: a value would overflow int64
            return tables
    return _fallback.rst_generate(n_max)


def format_rows(columns, first, sep: str, per_row: int, lo: int, hi: int) -> str:
    """Rows ``lo..hi-1`` of ``columns`` as _fallback.format_rows writes
    them, or its error: from the compiled kernel when it is built and can
    write them (every column an ``array('q')`` or another int64 buffer, every
    index within int64, a well-formed call), from the Python reference
    otherwise."""
    if _kernel is not None:
        text = _kernel.format_rows(columns, first, sep, per_row, lo, hi)
        if text is not None:  # None: the kernel declines the call
            return text
    return _fallback.format_rows(columns, first, sep, per_row, lo, hi)
