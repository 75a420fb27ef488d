"""Brute-force engine for the Hofstadter Q-recurrence.

The recurrence Q(n) = Q(n - Q(n-1)) + Q(n - Q(n-2)) is iterated from an
initial condition supplying Q(1), ..., Q(K).  Out-of-range references are
settled by one of two conventions:

* plain: a reference to any index outside 1..n-1 kills the sequence, which
  is said to die at n;
* zero-extended: Q(m) reads as 0 for m <= 0, while a reference to an index
  >= n ends the sequence at n.

Initial conditions have a small text grammar, accepted by :func:`parse_ic`
and emitted by :func:`format_ic`::

    ic    :=  ["0;"] item ("," item)*
    item  :=  INT | INT ".." INT        (inclusive ascending run, step 1)

so ``"0;1..4,9"`` is the zero-extended condition (1, 2, 3, 4, 9) and
``"2,0"`` is a plain two-term condition.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, count, groupby, islice
from operator import sub
from typing import IO, Sequence

from . import _backend
from .errors import ArithmeticOverflowError, ValidationError

__all__ = [
    "GeneratedSequence",
    "InitialCondition",
    "PredictionReport",
    "SequenceStatus",
    "evaluate",
    "format_ic",
    "parse_ic",
    "resolve_int_mode",
    "write_bfile",
    "write_csv",
]

_MODES = ("fast64", "exact")


def resolve_int_mode(mode: str | None = None) -> str:
    """Return the effective integer mode: ``mode``, or "fast64" when it is
    None.  "fast64" uses 64-bit arithmetic and raises
    ArithmeticOverflowError when a term leaves that range; "exact" uses
    unbounded Python integers.
    """
    mode = "fast64" if mode is None else mode
    if mode not in _MODES:
        raise ValidationError(f"unknown integer mode {mode!r}; expected one of {_MODES}")
    return mode


@dataclass(frozen=True)
class InitialCondition:
    """Terms Q(1..K) together with the out-of-range convention."""

    terms: tuple[int, ...]
    zero_extended: bool = False

    def __post_init__(self):
        # a range holds only ints: identity's own skips the conversion
        terms = self.terms
        terms = tuple(terms) if type(terms) is range else tuple(map(_term, terms))
        if not terms:
            raise ValidationError("initial condition needs at least one term")
        if not isinstance(self.zero_extended, bool):
            raise ValidationError(f"zero_extended {self.zero_extended!r} is not True or False")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def identity(cls, k: int, zero_extended: bool = False) -> "InitialCondition":
        """The condition Q(i) = i for 1 <= i <= k."""
        k = _term(k, "k")
        if k < 1:
            raise ValidationError("identity condition needs k >= 1")
        return cls(range(1, k + 1), zero_extended)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return format_ic(self)


def _term(value, what: str = "initial-condition term") -> int:
    """A term, or the integer ``what`` names, read through ``__index__`` (an
    int, or numpy's): a float, str or bool is refused, never truncated or
    parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{what} {value!r} is not an integer")
    return operator.index(value)


@dataclass(frozen=True)
class SequenceStatus:
    """How a run stopped: still alive, or died/ended at a 1-based index."""

    kind: str
    at_index: int | None = None

    def __post_init__(self):
        if self.kind not in ("alive", "died", "ended"):
            raise ValidationError(f"unknown status kind {self.kind!r}")
        if (self.at_index is None) != (self.kind == "alive"):
            raise ValidationError("at_index is required exactly for died/ended")
        if self.at_index is not None:
            object.__setattr__(self, "at_index", _term(self.at_index, "at_index"))

    @classmethod
    def alive(cls) -> "SequenceStatus":
        return cls("alive")

    @classmethod
    def died(cls, at_index: int) -> "SequenceStatus":
        return cls("died", at_index)

    @classmethod
    def ended(cls, at_index: int) -> "SequenceStatus":
        return cls("ended", at_index)

    @property
    def is_alive(self) -> bool:
        return self.kind == "alive"

    def __str__(self) -> str:
        return "alive" if self.is_alive else f"{self.kind} at {self.at_index}"


@dataclass(frozen=True, eq=False)
class GeneratedSequence:
    """A finite run: the condition, every produced term, and the stop state.

    ``terms`` is a sequence of ints, 1-indexed by convention (terms[0] is
    Q(1)).  From :func:`evaluate`, ``predict_sequence`` and ``specialize`` it
    is a read-only int64 memoryview (format "q") on either backend while its
    values fit int64, and a list of ints only past int64 (an exact run, a
    prediction or a specialization at a huge N); compare its values with
    ``list(terms)``, as a memoryview never equals a list.  A memoryview
    does not pickle: pickle ``list(terms)`` instead.
    """

    ic: InitialCondition
    terms: Sequence[int]
    status: SequenceStatus

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> int:
        """Q(n) for 1 <= n <= len(self)."""
        n = _term(n, "term index")
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"term index {n} outside 1..{len(self.terms)}")
        return self.terms[n - 1]


def _status_of(code: int, length: int) -> SequenceStatus:
    """The status of a run of ``length`` terms that stopped as the kernel's
    ``code`` says: the one rule for where, at the index past its last term.
    STATUS_OVERFLOW raises ArithmeticOverflowError naming that index."""
    if code == _backend.STATUS_ALIVE:
        return SequenceStatus.alive()
    if code == _backend.STATUS_DIED:
        return SequenceStatus.died(length + 1)
    if code == _backend.STATUS_ENDED:
        return SequenceStatus.ended(length + 1)
    raise ArithmeticOverflowError(length + 1)


def _check_run(ic: InitialCondition, max_terms: int) -> None:
    k = len(ic.terms)
    if k < 2:
        raise ValidationError("evaluate needs an initial condition with at least two terms")
    if max_terms < k:
        raise ValidationError(
            f"max_terms ({max_terms}) must cover the initial condition ({k} terms)"
        )


def evaluate(ic: InitialCondition, max_terms: int, mode: str | None = None) -> GeneratedSequence:
    """Run the recurrence from ``ic`` for up to ``max_terms`` total terms.

    The condition must supply at least two terms (the recurrence looks back
    at Q(n-1) and Q(n-2)) and ``max_terms`` must cover it.  The result is
    alive when ``max_terms`` was reached, otherwise died/ended at the first
    index the convention could not supply.  In fast64 mode a term outside
    the 64-bit range, initial or computed, raises ArithmeticOverflowError
    carrying its index.
    """
    max_terms = _term(max_terms, "max_terms")
    _check_run(ic, max_terms)
    exact = resolve_int_mode(mode) == "exact"
    terms, code = _backend.q_generate(ic.terms, ic.zero_extended, max_terms, exact)
    return GeneratedSequence(ic, terms, _status_of(code, len(terms)))


@dataclass(frozen=True)
class PredictionReport:
    """Outcome of comparing a prediction against the actual recurrence."""

    matched_through: int
    first_mismatch: tuple[int, int | None, int | None] | None
    predicted_status: SequenceStatus
    actual_status: SequenceStatus
    terminal_agreement: bool

    def to_json(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            index, predicted, actual = self.first_mismatch
            mismatch = {"index": index, "predicted": predicted, "actual": actual}
        return {
            "matched_through": self.matched_through,
            "first_mismatch": mismatch,
            "predicted_status": str(self.predicted_status),
            "actual_status": str(self.actual_status),
            "terminal_agreement": self.terminal_agreement,
        }


def _check(prefix, tiles, max_terms: int, predicted=None) -> PredictionReport:
    """Compare the run from ``prefix`` under zero extension, term by term and
    exactly, with the prefix and then the terms ``tiles`` predict after it:
    the one comparison of a prediction with brute force, for every family
    of initial conditions.  ``predicted(length)`` is the status of the
    prediction, ``length`` its count of terms; alive when it is None.  The
    terms agree through the first mismatch, or through the whole run."""
    length = len(prefix) + sum(tile[1] for tile in tiles)
    status = SequenceStatus.alive() if predicted is None else predicted(length)
    first, code, n_actual = _backend.q_check(prefix, tiles, max_terms)
    matched = n_actual if first is None else first[0] - 1
    actual = _status_of(code, n_actual)
    return PredictionReport(matched, first, status, actual, status == actual and length == n_actual)


def parse_ic(text: str) -> InitialCondition:
    """Parse the initial-condition grammar documented at module level."""
    s = text.strip()
    zero = False
    if s.startswith("0;"):
        zero = True
        s = s[2:]
    if not s:
        raise ValidationError(f"malformed initial condition {text!r}")
    items: list = []  # a range for each run, a 1-tuple for each single term
    for item in s.split(","):
        item = item.strip()
        lo, sep, hi = item.partition("..")
        try:
            if sep:
                a, b = int(lo), int(hi)
                if b < a:
                    raise ValidationError(f"descending run {item!r} in {text!r}")
                if b - a >= sys.maxsize:
                    raise ValidationError(
                        f"run {item!r} in {text!r} is longer than {sys.maxsize} terms")
                items.append(range(a, b + 1))
            else:
                items.append((int(item),))
        except ValueError:
            raise ValidationError(f"malformed initial condition {text!r}") from None
    # a lone run stays a range, which InitialCondition takes with no int() per term
    terms = items[0] if len(items) == 1 else tuple(chain.from_iterable(items))
    return InitialCondition(terms, zero)


def format_ic(ic: InitialCondition) -> str:
    """Render ``ic`` in the parse_ic grammar, compressing ascending runs."""
    parts: list[str] = []
    terms = ic.terms
    i = 0
    # terms[i] - i is the same along a run ascending by one, so groupby finds
    # each run's length with no Python code per term
    for _, run in groupby(map(sub, terms, count())):
        j = i + len(list(run))
        if j - i >= 3:
            parts.append(f"{terms[i]}..{terms[j - 1]}")
        else:
            parts.extend(map(str, terms[i:j]))
        i = j
    body = ",".join(parts)
    return f"0;{body}" if ic.zero_extended else body


# Rows per formatter call: a larger block raises the peak memory.
ROWS_PER_CALL = 4096


def write_table(out: IO[str], columns: Sequence[Sequence[int]], first: int | None, sep: str,
                per_row: int = 1) -> None:
    """Write every row of the int sequences ``columns`` (of equal length),
    laid out as :func:`qlab._backend.format_rows` says, ROWS_PER_CALL lines
    at a time: the one writer of qlab's integer tables."""
    step = ROWS_PER_CALL * per_row
    total = len(columns[0])
    for lo in range(0, total, step):
        out.write(_backend.format_rows(columns, first, sep, per_row, lo, min(lo + step, total)))


def write_bfile(seq: GeneratedSequence, out: IO[str]) -> None:
    """Write "n value" lines; a died/ended run gains a trailing comment."""
    write_table(out, (seq.terms,), 1, " ")
    if not seq.status.is_alive:
        out.write(f"# {seq.status.kind} at {seq.status.at_index}\n")


def write_csv(seq: GeneratedSequence, out: IO[str], loglog: bool = False) -> None:
    """Write "n,value" rows; with ``loglog``, log10 pairs skipping values <= 0."""
    if loglog:
        out.write("log10_n,log10_value\n")
        rows = (
            (math.log10(i), math.log10(v)) for i, v in enumerate(seq.terms, start=1) if v > 0
        )
        while block := list(islice(rows, ROWS_PER_CALL)):
            out.write(("%.6f,%.6f\n" * len(block)) % tuple(chain.from_iterable(block)))
    else:
        out.write("n,value\n")
        write_table(out, (seq.terms,), 1, ",")


def write_json(out: IO[str], payload: dict) -> None:
    """Write ``payload`` and a newline, byte for byte as json.dump would:
    the one JSON writer of qlab.  A memoryview, such as qlab's read-only
    int64 terms and tables, or an ``array('q')``, is written as the list of
    its values, formatted ROWS_PER_CALL * 10 values at a time (json.dumps
    would hold the whole text at once).  Every other value, such as the
    list of ints of an exact run past int64, goes through json.dumps.  json is imported here, its one user, so that only
    --format json loads it."""
    import json

    step = ROWS_PER_CALL * 10
    out.write("{")
    for i, (key, value) in enumerate(payload.items()):
        out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if not isinstance(value, (array, memoryview)):
            out.write(json.dumps(value))
            continue
        out.write("[")
        for lo in range(0, len(value), step):
            hi = min(lo + step, len(value))
            if lo:
                out.write(", ")
            # the values as one line, its "\n" dropped
            out.write(_backend.format_rows((value,), None, ", ", hi - lo, lo, hi)[:-1])
        out.write("]")
    out.write("}\n")
