"""Structure prediction for zero-extended identity initial conditions.

For most N >= 35 the sequence generated from <0-bar; 1, 2, ..., N> follows a
rigid layout: the identity prefix, 28 affine terms, six sporadic values, then
a chain of period-5 quasilinear chunks whose extents are governed by nested
markers A_1 < A_2 < ... computed by a base-5 descent on N.  Each level m of
the descent carries a residue C_m, and chunk m is followed by the rows that
`_closing(C_m)` derives: a bridge to chunk m+1 while C_m == 1; at the first
level j with C_j != 1, either the end of the run, one index past its last term
(C_j in {0, 3, 4}), or the head of blocks that grow forever from the R/S/T
system (C_j == 2).  The descent depends on N only through its base-5 digits, so
the classification of every N can be arranged into a five-way branching tree.

`abc_profile` runs the descent, `predicted_tiles` describes the terms past
1..N as a short tuple of tiles, `predict_sequence` materialises them,
`verify_against_bruteforce` compares them with the actual recurrence in the
kernel, term by term, and
`behavior_tree` / `tree_locate` expose the digit tree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cache

from ._fallback import STATUS_ENDED, TILE_BLOCKS, TILE_CHUNK, TILE_LITERAL, materialise
from .engine import (
    GeneratedSequence, InitialCondition, PredictionReport, SequenceStatus, _check, _status_of,
    _term,
)
from .errors import DivisibilityError, QlabError, ValidationError

__all__ = [
    "BehaviorTreeNode",
    "StructureProfile",
    "abc_profile",
    "behavior_tree",
    "congruence_check",
    "is_exceptional",
    "predict_sequence",
    "tree_locate",
    "verify_against_bruteforce",
]


def _columns(rows) -> tuple[memoryview, memoryview, memoryview]:
    """The (c, d, f) rows as the three int64 columns of a literal tile,
    read-only, as every prediction shares them."""
    return tuple(memoryview(array("q", column)).toreadonly() for column in zip(*rows))


@cache
def _prefix() -> tuple[memoryview, memoryview, memoryview]:
    """The columns (a, 0, b) with Q(N+k) = a*N + b for offsets k = 1..34 of
    <0-bar; 1..N>, a literal's forms at (N, 0): 28 affine terms and six
    sporadic ones, valid for every N >= 30.  Derived on first use, so that
    only a prediction loads the symbolic module."""
    from .symbolic import NConstraint, symbolic_extend

    terms = symbolic_extend("zero_extended", NConstraint(35), 34).terms
    return _columns((t.a, 0, t.b) for t in terms)


@cache
def _closing(c: int) -> tuple[int, tuple[memoryview, memoryview, memoryview], tuple[int, ...]]:
    """(C'_m, columns, reach) for a level m of the descent with C_m = c: chunk
    m runs through A_m + C'_m, row i of the columns (c, d, f) is the term at
    A_m + C'_m + 1 + i, c*x_m + d*A_m + f, a literal's forms at (x_m, A_m),
    where x_m = A_m*D_m + B_m and 5*D_m = A_m - A_{m-1} - c - 2, and rows
    0..i read at most Q(reach[i]).
    The recurrence runs on such forms, ordered x_m >> A_m >> 1, from A_m - c,
    where chunk m holds (x_m + A_m*j, 5, A_m, 3, 5)[r] at A_m - c + 5j + r, to
    the end of the run (c = 0, 3, 4), chunk m+1 at A_m + 7 (c = 1) or R/S/T
    block 1 at A_m + 5 (c = 2).  For c = 0 this assumes x_m >= A_m + 157, and
    chunk m back to A_m - 49; neither is recorded as a threshold.
    """

    def term(k: int) -> tuple[int, int, int]:  # the term at A_m + k
        if k in run:
            return run[k]
        j, r = divmod(k + c, 5)
        return ((1, j, 0), (0, 0, 5), (0, 1, 0), (0, 0, 3), (0, 0, 5))[r]

    run, rows, reach, top, k, stop = {}, [], [], 0, -c, {1: 7, 2: 5}.get(c)
    while k != stop:
        value = (0, 0, 0)
        for back in (1, 2):
            p, q, r = term(k - back)
            p, q, r = -p, 1 - q, k - r  # the index read, p*x_m + q*A_m + r
            read = (0, 0, 0)  # what an index <= 0 reads, unless placed below
            if (p, q) == (0, 1) and r < k:  # a term already derived, or chunk m
                read = term(r)
            elif (p, q) == (0, 0) and r >= 1:  # the identity, for N >= r
                read, top = (0, 0, r), max(top, r)
            elif (p, q) >= (0, 1):  # at or past A_m + k: the run ends
                return k - len(rows) - 1, _columns(rows), tuple(reach)
            value = tuple(u + v for u, v in zip(value, read))
        if rows or value != term(k):  # chunk m ends at its first departure
            rows.append(value)
            reach.append(top)
        run[k] = value
        k += 1
    return k - len(rows) - 1, _columns(rows), tuple(reach)


def _exact5(value: int) -> int:
    quot, rem = divmod(value, 5)
    if rem:
        raise DivisibilityError(f"{value} is not divisible by 5")
    return quot


def _base5(value: int) -> str:
    if value == 0:
        return "0"
    digits = []
    while value:
        value, rem = divmod(value, 5)
        digits.append(str(rem))
    return "".join(reversed(digits))


@dataclass(frozen=True)
class StructureProfile:
    """Descent data for one N.

    a[i] is A_i (a[0] = N - 2, a[1] = 2N + 4), b[i-1] is B_i = A_i - A_{i-1}
    with B_1 = -11N - 22, c[i-1] is the residue C_i, and c_prime[i-1] tells
    how far past A_i the level-i chunk reaches.  The descent stops at the
    first C_i != 1; that i is j and C_j is the classification.  If every
    computed residue is 1 the profile is truncated: j and classification are
    None.
    """

    n_value: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    c_prime: tuple[int, ...]
    j: int | None
    classification: int | None


def abc_profile(n_value: int, max_depth: int = 16) -> StructureProfile:
    n_value, max_depth = _term(n_value, "n_value"), _term(max_depth, "max_depth")
    if n_value < 0:
        raise ValidationError("n_value must be nonnegative")
    if max_depth < 1:
        raise ValidationError("max_depth must be at least 1")
    a = [n_value - 2, 2 * n_value + 4]
    b = [-11 * n_value - 22]
    c = [(n_value - 1) % 5]
    while c[-1] == 1 and len(c) < max_depth:
        i = len(c)
        nxt = a[i] * _exact5(a[i] - a[i - 1] + 2) + b[i - 1]
        a.append(nxt)
        b.append(nxt - a[i])
        c.append((nxt + 2 * (i + 1) + 1) % 5)
    c_prime = tuple(_closing(ci)[0] for ci in c)
    if c[-1] != 1:
        j, classification = len(c), c[-1]
    else:
        j, classification = None, None
    return StructureProfile(
        n_value, tuple(a), tuple(b), tuple(c), c_prime, j, classification
    )


def is_exceptional(n_value: int) -> bool:
    """True when the predicted layout is known not to hold for N: N in 2..34,
    and N below 118 of classification 0, whose run fails at the first row of
    the class-0 closing that reads past Q(N): that closing reads up to Q(118).
    The other closings read at most Q(7): no N >= 35 of those classes fails."""
    n_value = _term(n_value, "n_value")
    if n_value < 0:
        raise ValidationError("n_value must be nonnegative")
    cutoff = _closing(0)[2][-1]
    return 2 <= n_value <= 34 or (n_value < cutoff and abc_profile(n_value).classification == 0)


def predicted_tiles(profile: StructureProfile, max_terms: int) -> tuple[tuple, ...]:
    """The predicted terms from index N + 1 through max_terms, as tiles.

    Each tile is ``(kind, length, a, b)`` as ``_fallback`` documents: the
    34-term literal, then chunk 1 and, for each level m of the descent, the
    literal of the rows ``_closing(C_m)`` derives, followed by chunk m+1 when
    C_m = 1 or by the run of R/S/T blocks when C_m = 2.  Each literal holds
    the cached columns of its forms and the point (N, 0) or (x_m, A_m) they
    are read at, so no row is evaluated here, and its length clips it to
    the budget.  There are O(j) tiles whatever the budget.  The prediction
    is infinite for classification 2, ends one short of its end index after
    the closing of classification 0, 3 or 4, and stops after the last
    computed chunk when the profile is truncated: exactly then the tiles end
    short of max_terms.
    """
    n = profile.n_value
    a, b, c, cp = profile.a, profile.b, profile.c, profile.c_prime
    tiles = []
    end = n  # the index of the last term the tiles so far predict

    def add(kind: int, length: int, first, step) -> None:
        nonlocal end
        length = min(length, max_terms - end)
        if length > 0:
            tiles.append((kind, length, first, step))
            end += length

    forms = _prefix()
    add(TILE_LITERAL, len(forms[0]), (n, 0), forms)
    # chunk m runs through index A_m + C'_m, chunk 1 from index N + 35 on
    add(TILE_CHUNK, a[1] + cp[0] - end, 7 * a[1] + b[0], a[1])
    levels = profile.j if profile.j is not None else len(c) - 1
    for m in range(1, levels + 1):
        if end >= max_terms:
            break
        a_m, c_m = a[m], c[m - 1]
        x = a_m * _exact5(a_m - a[m - 1] - c_m - 2) + b[m - 1]
        forms = _closing(c_m)[1]
        add(TILE_LITERAL, len(forms[0]), (x, a_m), forms)
        if c_m == 1:
            add(TILE_CHUNK, a[m + 1] + cp[m] - end, a[m + 1] + b[m], a[m + 1])
        elif c_m == 2:
            # block k occupies offsets 5k .. 5k+4 past A_m, and holds while
            # lam*(T(k) - 1) >= 5k + 2 with lam = A_m; no N >= 35 fails that,
            # so every block the budget reaches is emitted.  The descent makes
            # A strictly increasing: with C_1 = 1, x_1 = (2N+4)(N+3)/5 - 11N
            # - 22 >= 195 for every N >= 37; then x_{m-1} >= 3 gives
            # D_m = (x_{m-1} - 3)/5 >= 0, as B_m = x_{m-1}, so
            # x_m = A_m*D_m + x_{m-1} >= 3 and A_m = A_{m-1} + x_{m-1}.  Hence
            # lam = A_m >= A_1 = 2N+4 >= 74, while through 10^6 blocks the
            # largest least valid lam is 12, at k = 2.  Only a class-2
            # prediction loads the R/S/T module.
            from .rst import _tables

            kmax = -(-(max_terms - end) // 5)
            tables = _tables(kmax + 1)
            add(TILE_BLOCKS, 5 * kmax, a_m, (tables.r, tables.s, tables.t))
    return tuple(tiles)


def _checked_profile(n_value: int, max_terms: int, max_depth: int) -> StructureProfile:
    """abc_profile(n_value), once N and the budget are known to be ones
    the prediction covers."""
    n_value, max_terms = _term(n_value, "n_value"), _term(max_terms, "max_terms")
    if n_value < 35 or is_exceptional(n_value):
        raise ValidationError(
            f"prediction covers non-exceptional N >= 35 only, got {n_value};"
            " use the engine (or the scan command) to observe this N"
        )
    profile = abc_profile(n_value, max_depth=max_depth)
    if max_terms < n_value:
        raise ValidationError("max_terms must cover the identity prefix")
    return profile


def _predicted_status(profile: StructureProfile, length: int, max_terms: int) -> SequenceStatus:
    """The status of a prediction of ``length`` terms within max_terms: one
    cut by the budget, as every classification-2 prediction is, is alive; a
    finite one has ended one past its last term."""
    if length == max_terms:
        return SequenceStatus.alive()
    if profile.j is None:
        raise QlabError(
            f"classification of {profile.n_value} unresolved at depth {len(profile.c)}"
        )
    return _status_of(STATUS_ENDED, length)


def predict_sequence(
    n_value: int, max_terms: int, max_depth: int = 16
) -> GeneratedSequence:
    """Emit the predicted sequence for <0-bar; 1..N> without running Q.

    Mirrors evaluate(): at most max_terms terms, status ended(E) only once
    max_terms reaches the end index E; a classification-2 prediction always
    fills max_terms and stays alive.  A depth-capped unresolved profile
    still predicts through its last resolved chunk; asking for terms past
    that raises QlabError.  The terms are an ``array('q')`` while they fit
    int64, as evaluate() returns them.
    """
    profile = _checked_profile(n_value, max_terms, max_depth)
    # the condition first: its tuple of N terms is sized at once, so an N
    # too large for memory is a MemoryError before any term is built
    ic = InitialCondition.identity(n_value, zero_extended=True)
    tiles = predicted_tiles(profile, max_terms)
    terms = materialise(range(1, profile.n_value + 1), tiles, max_terms)
    return GeneratedSequence(ic, terms, _predicted_status(profile, len(terms), max_terms))


def verify_against_bruteforce(
    n_value: int, max_terms: int, max_depth: int = 16
) -> PredictionReport:
    """Compare predict_sequence(n_value, max_terms) with the recurrence run
    from <0-bar; 1..N>, term by term, without building either list."""
    profile = _checked_profile(n_value, max_terms, max_depth)
    tiles = predicted_tiles(profile, max_terms)
    return _check(range(1, n_value + 1), tiles, max_terms,
                  lambda length: _predicted_status(profile, length, max_terms))


@dataclass
class BehaviorTreeNode:
    """Node of the base-5 classification tree.

    digits is the node's base-5 string; prepending a digit refines N modulo
    the next power of five.  kind is "internal" (residue 1, children present),
    "leaf" (classification known) or "truncated" (residue 1 at the depth cap).
    """

    digits: str
    kind: str
    leaf_type: int | None = None
    children: dict[int, BehaviorTreeNode] = field(default_factory=dict)


def behavior_tree(max_level: int) -> BehaviorTreeNode:
    max_level = _term(max_level, "max_level")
    if max_level < 1:
        raise ValidationError("max_level must be at least 1")
    root = BehaviorTreeNode(digits="", kind="internal")
    _grow(root, 1, max_level)
    return root


def _grow(node: BehaviorTreeNode, level: int, max_level: int) -> None:
    for digit in range(5):
        digits = str(digit) + node.digits
        profile = abc_profile(int(digits, 5), max_depth=level)
        if profile.j is not None:
            child = BehaviorTreeNode(digits, "leaf", profile.classification)
        elif level == max_level:
            child = BehaviorTreeNode(digits, "truncated")
        else:
            child = BehaviorTreeNode(digits, "internal")
            _grow(child, level + 1, max_level)
        node.children[digit] = child


def tree_locate(n_value: int, max_depth: int = 16) -> tuple[str, int]:
    """Return (digits, classification) of the leaf containing N."""
    profile = abc_profile(n_value, max_depth=max_depth)
    if profile.j is None:
        raise QlabError(
            f"classification of {n_value} unresolved at depth {max_depth}"
        )
    digits = _base5(n_value % 5**profile.j).rjust(profile.j, "0")
    return digits, profile.classification


def congruence_check(n_value: int, multiplier: int, max_depth: int = 16) -> bool:
    """Check that N + multiplier * 5^j reproduces the descent of N.

    The shifted value must keep every residue C_i, the depth j, and satisfy
    A_i(shifted) == A_i(N) modulo 5^(j - i + 1) for i = 1..j.
    """
    multiplier = _term(multiplier, "multiplier")
    if multiplier < 1:
        raise ValidationError("multiplier must be at least 1")
    base = abc_profile(n_value, max_depth=max_depth)
    if base.j is None:
        raise QlabError(
            f"classification of {n_value} unresolved at depth {max_depth}"
        )
    j = base.j
    shifted = abc_profile(n_value + multiplier * 5**j, max_depth=max_depth)
    if shifted.j != j:
        return False
    for i in range(1, j + 1):
        if base.c[i - 1] != shifted.c[i - 1]:
            return False
        if (base.a[i] - shifted.a[i]) % 5 ** (j - i + 1):
            return False
    return True
