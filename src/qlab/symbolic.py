"""Symbolic prefixes of identity initial conditions.

For the family of conditions Q(i) = i, 1 <= i <= N (plain or
zero-extended), the terms just past N can be derived once for every N in a
range: each Q(N+k) comes out as an affine expression a*N + b, valid for all
N above a recorded threshold.  The derivation is ``predictor._run``, the
recurrence on affine forms from the identity, with A = N, under the
interval rule: N is an indeterminate constrained to an interval, and a
form is taken to be >= 0 only when it provably is over the whole interval
from some threshold on.  A read the rule cannot settle stops the
derivation as unresolved; a plain sequence that reads an index <= 0, or
at or past the current one, dies.

The running maximum of the thresholds each term needed is stored per term
as ``min_valid_N``, so a prefix can be replayed at any concrete N meeting
the bounds (see :func:`specialize`), even below the interval it was
derived over.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._fallback import TILE_LITERAL, materialise
from .engine import GeneratedSequence, InitialCondition, SequenceStatus, _term
from .errors import ValidationError
from .predictor import _run

__all__ = [
    "AffineExpr",
    "AffineTerm",
    "NConstraint",
    "StopReason",
    "SymbolicPrefix",
    "specialize",
    "symbolic_extend",
]

CONVENTIONS = ("plain", "zero_extended")


def _affine_str(a: int, b: int) -> str:
    if a == 0:
        return str(b)
    head = "N" if a == 1 else "-N" if a == -1 else f"{a}N"
    return head if b == 0 else f"{head}{b:+d}"


def _ceil_div(p: int, q: int) -> int:
    """ceil(p / q) for q > 0."""
    return -((-p) // q)


@dataclass(frozen=True)
class AffineExpr:
    """The expression a*N + b."""

    a: int
    b: int

    def value(self, n: int) -> int:
        return self.a * n + self.b

    def __str__(self) -> str:
        return _affine_str(self.a, self.b)


@dataclass(frozen=True)
class AffineTerm(AffineExpr):
    """A derived term a*N + b, valid for every N >= min_valid_N."""

    min_valid_N: int


@dataclass(frozen=True)
class NConstraint:
    """The interval lo <= N <= hi; hi=None leaves the range unbounded."""

    lo: int
    hi: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "lo", _term(self.lo, "lo"))
        if self.hi is not None:
            object.__setattr__(self, "hi", _term(self.hi, "hi"))
            if self.hi < self.lo:
                raise ValidationError(f"empty constraint [{self.lo}, {self.hi}]")

    def __contains__(self, n: int) -> bool:
        return n >= self.lo and (self.hi is None or n <= self.hi)

    def __str__(self) -> str:
        if self.hi is None:
            return f"N >= {self.lo}"
        return f"{self.lo} <= N <= {self.hi}"


@dataclass(frozen=True)
class StopReason:
    """Why derivation stopped.

    kind is "completed" (all requested offsets derived), "unresolved" (the
    branch taken by the reference ``expr`` at offset ``index`` cannot be
    decided over the whole constraint), or "symbolic_death" (a plain
    sequence provably dies at offset ``index``, where ``expr`` is the
    offending reference).
    """

    kind: str
    index: int | None = None
    expr: AffineExpr | None = None

    def __post_init__(self):
        if self.kind not in ("completed", "unresolved", "symbolic_death"):
            raise ValidationError(f"unknown stop reason {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "completed":
            return "completed"
        return f"{self.kind} at offset {self.index} (reference {self.expr})"


@dataclass(frozen=True)
class SymbolicPrefix:
    """Derived terms Q(N+1..N+len(terms)) for identity conditions."""

    convention: str
    constraint: NConstraint
    terms: tuple[AffineTerm, ...]
    stop_reason: StopReason

    @property
    def n_offsets(self) -> int:
        return len(self.terms)

    def to_text(self) -> str:
        lines = [f"convention: {self.convention}", f"constraint: {self.constraint}"]
        lines += [
            f"Q(N+{k}) = {t} for N >= {t.min_valid_N}"
            for k, t in enumerate(self.terms, start=1)
        ]
        lines.append(str(self.stop_reason))
        return "\n".join(lines)

    def to_json(self) -> dict:
        stop: dict = {"kind": self.stop_reason.kind}
        if self.stop_reason.kind != "completed":
            stop["index"] = self.stop_reason.index
            stop["expr"] = str(self.stop_reason.expr)
        return {
            "convention": self.convention,
            "constraint": {"lo": self.constraint.lo, "hi": self.constraint.hi},
            "terms": [
                {"offset": k, "a": t.a, "b": t.b, "min_valid_N": t.min_valid_N}
                for k, t in enumerate(self.terms, start=1)
            ],
            "stop_reason": stop,
        }


def _holds_from(a: int, b: int, lo: int, hi: int | None) -> int | None:
    """The least N >= 2 from which a*N + b >= 0 holds up to hi, when that
    N is at most lo; otherwise None.

    A result proves the inequality for every N in [lo, hi].  hi=None
    leaves the range unbounded, where a negative slope never holds.
    """
    if a > 0:
        start = max(2, _ceil_div(-b, a))
    elif a == 0:
        start = 2 if b >= 0 else None
    else:
        start = 2 if hi is not None and a * hi + b >= 0 else None
    return start if start is not None and start <= lo else None


def symbolic_extend(convention: str, constraint: NConstraint, max_offsets: int) -> SymbolicPrefix:
    """Derive Q(N+1..N+max_offsets) as affine terms over ``constraint``.

    Requires constraint.lo >= 2 and max_offsets >= 1.  Derivation stops
    early with the reason recorded when a reference cannot be settled
    (unresolved) or a plain sequence provably dies (symbolic_death); a run
    long enough to witness the stop must therefore ask for at least that
    many offsets.
    """
    if convention not in CONVENTIONS:
        raise ValidationError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if constraint.lo < 2:
        raise ValidationError("symbolic derivation needs constraint.lo >= 2")
    max_offsets = _term(max_offsets, "max_offsets")
    if max_offsets < 1:
        raise ValidationError("max_offsets must be >= 1")

    zero = convention == "zero_extended"
    lo, hi = constraint.lo, constraint.hi
    k, rows, reach, _, why, index = _run(
        lambda i: (0, 1, i), lambda form, n: _holds_from(form[1] + n, form[2], lo, hi),
        1, max_offsets + 1, zero,
    )
    terms = tuple(AffineTerm(a, b, max(2, least)) for (_, a, b), least in zip(rows, reach))
    if why == "completed":
        stop = StopReason(why)
    else:
        # a zero-extended read at or past N + k needs a term no finite
        # prefix holds, so it stays unresolved
        dies = why == "zero" or (why == "past" and not zero)
        stop = StopReason("symbolic_death" if dies else "unresolved", k, AffineExpr(*index[1:]))
    return SymbolicPrefix(convention, constraint, terms, stop)


def specialize(prefix: SymbolicPrefix, n: int) -> GeneratedSequence:
    """Instantiate ``prefix`` at a concrete N.

    N must satisfy every term's min_valid_N and the constraint's upper
    bound; it may lie below the interval the prefix was derived over, since
    the recorded thresholds are what the terms actually require.  The
    result covers Q(1..N+n_offsets), with died status when the prefix ends
    in symbolic death; its terms are a read-only int64 memoryview while they
    fit int64.
    """
    n = _term(n, "n")
    if n < 2:
        raise ValidationError("specialize needs N >= 2")
    hi = prefix.constraint.hi
    if hi is not None and n > hi:
        raise ValidationError(f"N={n} exceeds the constraint upper bound {hi}")
    for k, t in enumerate(prefix.terms, start=1):
        if n < t.min_valid_N:
            raise ValidationError(f"term at offset {k} requires N >= {t.min_valid_N}, got N={n}")
    ic = InitialCondition.identity(n, prefix.convention == "zero_extended")
    k = len(prefix.terms)
    # the terms' forms (a, 0, b), read at (N, 0)
    forms = ([t.a for t in prefix.terms], [0] * k, [t.b for t in prefix.terms])
    terms = materialise(range(1, n + 1), ((TILE_LITERAL, k, (n, 0), forms),), n + k)
    if prefix.stop_reason.kind == "symbolic_death":
        status = SequenceStatus.died(n + prefix.stop_reason.index)
    else:
        status = SequenceStatus.alive()
    return GeneratedSequence(ic, terms, status)
