"""Structure prediction for zero-extended identity initial conditions.

For most N >= 35 the sequence generated from <0-bar; 1, 2, ..., N> follows a
rigid layout: the identity prefix, 28 affine terms, six sporadic values, then
a chain of period-5 quasilinear chunks whose extents are governed by nested
markers A_1 < A_2 < ... computed by a base-5 descent on N.  Each level m of
the descent carries a residue C_m, and chunk m is followed by the terms of
`CLOSINGS[C_m]`: a bridge to chunk m+1 while C_m == 1; at the first level j
with C_j != 1, either the end of the run, one index past its last term
(C_j in {0, 3, 4}), or the head of blocks that grow forever from the R/S/T
system (C_j == 2).  The descent depends on N only through its base-5 digits, so
the classification of every N can be arranged into a five-way branching tree.

`abc_profile` runs the descent, `predicted_tiles` describes the predicted
terms as a short tuple of tiles, `predict_sequence` materialises them,
`verify_against_bruteforce` compares them with the actual recurrence in the
kernel, term by term, and
`behavior_tree` / `tree_locate` expose the digit tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from ._fallback import TILE_BLOCKS, TILE_CHUNK, TILE_LITERAL, TILE_RANGE, materialise
from .engine import GeneratedSequence, InitialCondition, PredictionReport, SequenceStatus, _check
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


@cache
def _prefix() -> tuple[tuple[int, int], ...]:
    """(a, b) with Q(N+k) = a*N + b for offsets k = 1..34 of <0-bar; 1..N>:
    28 affine terms and six sporadic ones, valid for every N >= 30.  Derived
    on first use, so that only a prediction loads the symbolic module."""
    from .symbolic import NConstraint, symbolic_extend

    return tuple((t.a, t.b) for t in symbolic_extend("zero_extended", NConstraint(35), 34).terms)


# CLOSINGS[c]: the (c, d, f) rows of the terms that close a level m of the
# descent with residue C_m = c, starting just past chunk m: row i is the term
# at A_m + C'_m + 1 + i, equal to c*x_m + d*A_m + f, where x_m = A_m*D_m + B_m
# and D_m = (A_m - A_{m-1} - C_m - 2) / 5.  Row set 1 is the bridge to chunk
# m+1 (its third term is A_{m+1} = x_m + A_m), row set 2 the head of the
# R/S/T blocks (5R(1) = 5S(1) = 5), and 0, 3 and 4 end the run.
CLOSINGS: tuple[tuple[tuple[int, int, int], ...], ...] = (
    ((0, 0, 6), (0, 0, 7), (0, 0, 8), (0, 0, 8), (0, 0, 10), (1, 0, 3),
     (0, 0, 5), (0, 0, 8), (0, 0, 14), (0, 0, 10), (0, 0, 11), (0, 0, 13),
     (0, 1, 7), (0, 0, 15), (0, 1, 10), (0, 0, 14), (0, 0, 17), (0, 0, 14),
     (0, 0, 17), (1, 0, 11), (0, 0, 8), (0, 0, 15), (0, 1, 18), (0, 0, 22),
     (0, 0, 17), (0, 0, 22), (0, 0, 20), (1, 0, 11), (0, 0, 14), (0, 0, 14),
     (0, 0, 34), (1, 0, 14), (0, 0, 5), (0, 0, 14), (0, 0, 22), (0, 0, 30),
     (0, 1, 15), (0, 0, 33), (1, 0, 29), (0, 0, 5), (0, 0, 30), (0, 1, 28),
     (0, 1, 24), (0, 0, 40), (0, 0, 33), (1, 1, 10), (0, 0, 15), (0, 0, 5),
     (0, 0, 54), (0, 0, 36), (0, 1, 15), (0, 0, 53), (0, 1, 40), (0, 0, 22),
     (0, 0, 22), (0, 0, 28), (0, 0, 36), (0, 0, 29), (0, 1, 32), (0, 0, 64),
     (0, 0, 36), (1, 0, 22), (0, 0, 20), (0, 0, 40), (0, 0, 50), (0, 0, 36),
     (0, 0, 51), (1, 0, 31), (0, 0, 14), (0, 0, 28), (0, 1, 60), (0, 0, 54),
     (0, 0, 32), (1, 1, 39), (0, 1, 24), (0, 0, 54), (0, 1, 73), (0, 0, 29),
     (0, 0, 44), (0, 1, 45), (0, 1, 53), (0, 0, 70), (0, 1, 39), (0, 0, 62),
     (0, 1, 66), (0, 0, 44), (0, 1, 47), (0, 0, 83), (1, 0, 47), (0, 0, 5),
     (0, 0, 44), (0, 1, 52), (0, 0, 97), (0, 0, 49), (2, 1, 10), (0, 0, 15),
     (0, 0, 70), (1, 1, 50), (0, 0, 14), (0, 0, 44), (0, 1, 83), (0, 0, 50),
     (0, 1, 62), (0, 0, 66), (1, 0, 74), (0, 0, 5), (0, 0, 50), (0, 1, 91),
     (0, 1, 52), (0, 0, 81), (0, 0, 75), (0, 1, 49), (0, 0, 99), (0, 1, 77),
     (0, 0, 54), (1, 0, 63), (0, 0, 20), (1, 1, 50), (0, 0, 14), (0, 0, 5),
     (1, 0, 113), (0, 0, 20), (0, 1, 62), (0, 0, 130), (0, 1, 65), (0, 0, 66),
     (0, 0, 100), (2, 0, 33), (0, 0, 14), (1, 0, 63), (0, 0, 20), (0, 1, 49),
     (0, 0, 185), (0, 0, 92), (0, 2, 24), (0, 0, 40), (0, 0, 70), (2, 1, 81),
     (0, 0, 14), (0, 0, 66), (0, 1, 124), (0, 0, 74), (0, 0, 35), (0, 1, 80),
     (0, 0, 148), (1, 0, 68), (0, 0, 5), (0, 0, 35), (0, 2, 157), (0, 0, 54),
     (0, 0, 70), (1, 1, 120), (0, 1, 39), (0, 0, 117), (0, 0, 151), (1, 0, 39),
     (1, 0, 3), (0, 0, 0)),
    ((0, 0, 5), (0, 0, 8), (1, 1, 0), (0, 0, 3), (0, 0, 8)),
    ((0, 0, 4), (1, 0, 2), (0, 0, 5), (0, 0, 5)),
    ((0, 0, 6), (0, 1, 5), (1, 0, 0), (0, 0, 0)),
    ((0, 0, 7), (0, 1, 5), (0, 0, 4), (0, 1, 2), (0, 0, 13), (1, 0, 7),
     (0, 0, 5), (0, 0, 4), (0, 1, 15), (1, 0, 7), (0, 0, 0)),
)


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
    c_prime = tuple(max(0, ((3 - ci) % 5) - 1) for ci in c)
    if c[-1] != 1:
        j, classification = len(c), c[-1]
    else:
        j, classification = None, None
    return StructureProfile(
        n_value, tuple(a), tuple(b), tuple(c), c_prime, j, classification
    )


def is_exceptional(n_value: int) -> bool:
    """True when the predicted layout is known not to hold for N: for N
    in 2..34, and for an N below 118 of classification 0, whose run fails
    inside the 158-row closing (tests/test_predictor.py names the row for
    each one brute force reaches)."""
    if n_value < 0:
        raise ValidationError("n_value must be nonnegative")
    return 2 <= n_value <= 34 or (n_value < 118 and abc_profile(n_value).classification == 0)


def predicted_tiles(profile: StructureProfile, max_terms: int) -> tuple[tuple, ...]:
    """The first max_terms predicted terms, from index 1 on, as tiles.

    Each tile is ``(kind, length, a, b)`` as ``_fallback`` documents: the
    identity range, the prefix literal, then chunk 1 and, for each level m
    of the descent, the literal of ``CLOSINGS[C_m]`` followed by chunk m+1
    when C_m = 1 or by the run of R/S/T blocks when C_m = 2.  There are
    O(j + closing) tiles whatever the budget.  The prediction is infinite
    for classification 2 unless a block fails its side condition, ends one
    short of its end index after the closing of classification 0, 3 or 4,
    and stops after the last computed chunk when the profile is truncated;
    the tiles cover fewer than max_terms terms exactly when it stops.
    """
    n = profile.n_value
    a, b, c, cp = profile.a, profile.b, profile.c, profile.c_prime
    tiles = [(TILE_RANGE, n, 1, None)]
    end = n

    def add(kind: int, length: int, first, step) -> None:
        nonlocal end
        length = min(length, max_terms - end)
        if length > 0:
            tiles.append((kind, length, first, step))
            end += length

    # each literal evaluates only the rows the budget keeps
    pairs = _prefix()[: max_terms - end]
    add(TILE_LITERAL, len(pairs), tuple([alpha * n + beta for alpha, beta in pairs]), None)
    # chunk m runs through index A_m + C'_m, chunk 1 from index N + 35 on
    add(TILE_CHUNK, a[1] + cp[0] - end, 7 * a[1] + b[0], a[1])
    levels = profile.j if profile.j is not None else len(c) - 1
    for m in range(1, levels + 1):
        if end >= max_terms:
            break
        a_m, c_m = a[m], c[m - 1]
        x = a_m * _exact5(a_m - a[m - 1] - c_m - 2) + b[m - 1]
        rows = CLOSINGS[c_m][: max_terms - end]
        add(TILE_LITERAL, len(rows), tuple([cc * x + dd * a_m + ff for cc, dd, ff in rows]), None)
        if c_m == 1:
            add(TILE_CHUNK, a[m + 1] + cp[m] - end, a[m + 1] + b[m], a[m + 1])
        elif c_m == 2:
            # block k occupies offsets 5k .. 5k+4 past A_m; only a class-2
            # prediction loads the R/S/T module
            from .rst import _block_count, _tables

            kmax = _block_count(a_m, -(-(max_terms - end) // 5))
            tables = _tables(kmax + 1)
            add(TILE_BLOCKS, 5 * kmax, a_m, (tables.r, tables.s, tables.t))
    return tuple(tiles)


def _checked_profile(n_value: int, max_terms: int, max_depth: int) -> StructureProfile:
    """abc_profile(n_value), once N and the budget are known to be ones
    the prediction covers."""
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
    cut by the budget, or of classification 2 (a block failed its side
    condition), is alive; a finite one has ended one past its last term."""
    if length == max_terms or profile.classification == 2:
        return SequenceStatus.alive()
    if profile.j is None:
        raise QlabError(
            f"classification of {profile.n_value} unresolved at depth {len(profile.c)}"
        )
    return SequenceStatus.ended(length + 1)


def predict_sequence(
    n_value: int, max_terms: int, max_depth: int = 16
) -> GeneratedSequence:
    """Emit the predicted sequence for <0-bar; 1..N> without running Q.

    Mirrors evaluate(): at most max_terms terms, status ended(E) only once
    max_terms reaches the end index E.  A classification-2 block that fails
    its side condition truncates the prediction and leaves the status alive.
    A depth-capped unresolved profile still predicts through its last
    resolved chunk; asking for terms past that raises QlabError.  The terms
    are an ``array('q')`` while they fit int64, as evaluate() returns them.
    """
    profile = _checked_profile(n_value, max_terms, max_depth)
    tiles = predicted_tiles(profile, max_terms)
    terms = materialise(tiles, max_terms)
    status = _predicted_status(profile, len(terms), max_terms)
    ic = InitialCondition.identity(n_value, zero_extended=True)
    return GeneratedSequence(ic, terms, status)


def verify_against_bruteforce(
    n_value: int, max_terms: int, max_depth: int = 16
) -> PredictionReport:
    """Compare predict_sequence(n_value, max_terms) with the recurrence run
    from <0-bar; 1..N>, term by term, without building either list."""
    profile = _checked_profile(n_value, max_terms, max_depth)
    tiles = predicted_tiles(profile, max_terms)
    length = sum(tile[1] for tile in tiles)
    predicted = _predicted_status(profile, length, max_terms)
    return _check(range(1, n_value + 1), tiles, max_terms, predicted)


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
