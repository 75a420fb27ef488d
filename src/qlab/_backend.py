"""Kernel selection: compiled extension when built, pure Python otherwise.

Both backends hand back the same types, and this module only chooses
which one runs.  Terms and R/S/T tables whose values all fit int64 are one
``array('q')`` each, filled in place by the compiled kernel and by the
Python reference alike; only an exact run that goes past int64 comes back
as a list of Python ints.  The compiled kernel answers a call or returns
None, and raises nothing but MemoryError or an interrupt.  Each function
here returns the kernel's answer or, when the kernel is not built or
returns None, the Python reference's answer or error (see ``_answer``).
"""

from __future__ import annotations

from . import _fallback
from ._fallback import STATUS_ALIVE, STATUS_DIED, STATUS_ENDED, STATUS_OVERFLOW

try:
    from . import _kernel  # type: ignore[no-redef]
except ImportError:
    _kernel = None

BACKEND = "compiled" if _kernel is not None else "python"

__all__ = ["BACKEND", "format_rows", "q_check", "q_generate", "rst_generate"]


def _answer(name: str, *args, **reference_options):
    """``name(*args)`` from the compiled kernel, or from ``_fallback`` with
    ``reference_options`` when the kernel is not built or declines the
    call: it cannot read it, or cannot decide it in int64."""
    answer = None if _kernel is None else getattr(_kernel, name)(*args)
    return getattr(_fallback, name)(*args, **reference_options) if answer is None else answer


def q_generate(prefix, zero_extended: bool, max_terms: int, exact: bool):
    """Extend ``prefix`` as _fallback.q_generate does, checked unless
    ``exact``; returns ``(terms, status, at)`` with ``terms`` an
    ``array('q')``, or a list of ints for an exact run past int64.

    ``prefix`` is a sequence of ints: the compiled kernel reads a ``range``
    whose start and step fit int64 from those two and its length, with no
    int per term.  A term outside int64 ends the kernel's run with
    STATUS_OVERFLOW at that term's index; an exact run then goes on in
    Python from the terms before it, or from the whole prefix when the term
    is one of the prefix's own.
    """
    terms, status, at = run = _answer("q_generate", prefix, zero_extended, max_terms,
                                      checked=not exact)
    if status == STATUS_OVERFLOW and exact:
        # only the kernel's run overflows here; Python recomputes the term
        # that left int64, so the exact run ends as a list
        start = terms if at > len(prefix) else prefix
        return _fallback.q_generate(start, zero_extended, max_terms, checked=False)
    return run


def q_check(prefix, zero_extended: bool, tiles, max_terms: int):
    """Run the recurrence and compare it with the prediction ``tiles``, as
    _fallback.q_check does unchecked: always the exact answer.  ``prefix``
    is read as q_generate reads it: ``verify`` and ``scan`` pass
    ``range(1, N + 1)``, which the kernel reads without an int per term."""
    return _answer("q_check", prefix, zero_extended, tiles, max_terms, checked=False)


def rst_generate(n_max: int):
    """The R/S/T tables through ``n_max`` as _fallback.rst_generate returns
    them, three ``array('q')``."""
    return _answer("rst_generate", n_max)


def format_rows(columns, first, sep: str, per_row: int, lo: int, hi: int) -> str:
    """Rows ``lo..hi-1`` of ``columns`` as _fallback.format_rows writes
    them, or its error; the kernel writes only int64 buffer columns."""
    return _answer("format_rows", columns, first, sep, per_row, lo, hi)
