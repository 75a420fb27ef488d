"""The coupled R/S/T meta-sequences and the sequence families they govern.

The three sequences are defined jointly, with R(n) = 0 for n <= 0, R(1) = 1,
R(2) = 2, S(n) = 0 for n < 0, S(0) = S(1) = 1, T(n) = 0 for n < 0, T(0) = 1,
and for larger n (computing R, then S, then T at each step):

    R(n) = R(n - R(n-1)) + S(n-1)
    S(n) = S(n - R(n))   + S(n - R(n-1))
    T(n) = T(n - R(n))   + T(n - S(n))

They appear as the block structure of unbounded zero-extended sequences:
<0;a_1..a_K,5,lam,4,mu> continues in five-term blocks
(5R(k), 5S(k), lam*T(k), 4, 5R(k)), checked by :func:`qt_pattern_check`.
The class-2 closing of <0-bar; 1..N> is this qt stream with K = A_j - 2 and
lam = A_j, whose side condition lam*T(k) >= K+5k+4 no N >= 35 can fail
(``predictor.predicted_tiles`` says why).  A second, quasilinear-start family
is checked by :func:`qc_pattern_check`; its period-5 chunk is the predictor's.

Both checkers describe the terms past their condition as the predictor's
tiles (a literal of constants, R/S/T blocks, the period-5 chunk; see
``_fallback``) and return the :class:`PredictionReport` of the prediction
oracle's comparison with the recurrence, ``engine._check``, as
``verify_against_bruteforce`` does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from . import _backend
from ._fallback import TILE_BLOCKS, TILE_CHUNK, TILE_LITERAL
from .engine import InitialCondition, PredictionReport, _check, _term
from .errors import QlabError, ValidationError

__all__ = [
    "RSTState",
    "RSTStatus",
    "qc_pattern_check",
    "qt_pattern_check",
    "rst_compute",
]


@dataclass(frozen=True)
class RSTStatus:
    """Alive, or ended because ``which`` of r/s/t needed a future value."""

    kind: str
    which: str | None = None
    at_index: int | None = None

    @classmethod
    def alive(cls) -> "RSTStatus":
        return cls("alive")

    @classmethod
    def ended(cls, which: str, at_index: int) -> "RSTStatus":
        return cls("ended", which, at_index)

    @property
    def is_alive(self) -> bool:
        return self.kind == "alive"


@dataclass(frozen=True)
class RSTState:
    """Computed tables: r = R(0..n), s = S(0..n), t = T(0..n), row k of
    each at index k.

    Each table is a sequence of ints, and an ``array('q')`` from
    :func:`rst_compute` on either backend: no value reaches int64 within
    any table memory can hold.  Each array holds exactly its rows: it is
    allocated once at n_max + 1 rows, and cut where the system ends.
    """

    r: Sequence[int]
    s: Sequence[int]
    t: Sequence[int]
    status: RSTStatus

    @property
    def n(self) -> int:
        return len(self.s) - 1

    def R(self, i: int) -> int:
        i = _term(i, "index")
        return self.r[i] if i >= 0 else 0

    def S(self, i: int) -> int:
        i = _term(i, "index")
        return self.s[i] if i >= 0 else 0

    def T(self, i: int) -> int:
        i = _term(i, "index")
        return self.t[i] if i >= 0 else 0


def rst_compute(n_max: int) -> RSTState:
    """Compute the three tables through n_max (>= 2), or to where they end.

    If one of the sequences ever needs a not-yet-computed value, the state
    stops at the previous index with an ended status; the partial row is
    dropped so all three tables cover the same range.
    """
    n_max = _term(n_max, "n_max")
    if n_max < 2:
        raise ValidationError("rst_compute needs n_max >= 2")
    r, s, t, which = _backend.rst_generate(n_max)
    status = RSTStatus.alive() if which is None else RSTStatus.ended(which, len(s))
    return RSTState(r, s, t, status)


# The tables behind the block tiles: row 0 until first read, then
# recomputed to at least double their size whenever a read passes the end.
_TABLES = RSTState((0,), (1,), (1,), RSTStatus.alive())


def _tables(n: int) -> RSTState:
    """The cached tables, grown to cover row n."""
    global _TABLES
    if n > _TABLES.n:
        _TABLES = rst_compute(max(n, 2 * _TABLES.n, 2))
        if n > _TABLES.n:
            status = _TABLES.status
            raise QlabError(f"the r/s/t system ended ({status.which} at {status.at_index})")
    return _TABLES


def qt_pattern_check(prefix, lam: int, mu: int, k_max: int) -> PredictionReport:
    """Check <0;a_1..a_K,5,lam,4,mu> against its R/S/T block pattern.

    Block k >= 1 should occupy indices K+5k..K+5k+4 with the values
    (5R(k), 5S(k), lam*T(k), 4, 5R(k)).  For K = 0 the pattern is
    guaranteed for lam >= 9 and mu >= 6.  For K >= 1 it also needs the
    growth condition lam*T(k) >= K+5k+4 for every k <= k_max, besides
    lam >= 9 and mu >= K+6; that case is checked by seeded sweeps in the
    tests, not proven.  None of these is enforced, so a caller can probe
    how violations look; k_max >= 1 is.  The run is compared, exactly, with
    the pattern through index K+5k_max+4, where it predicts a live run;
    after a violation, (matched_through - K - 4) // 5 blocks held.
    """
    k_max = _term(k_max, "k_max")
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    big_k = len(prefix)
    ic = InitialCondition((*prefix, 5, lam, 4, mu), zero_extended=True)
    tables = _tables(k_max + 1)
    # from index K+5: 5R(1), 5S(1), and the blocks
    # (lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1)) through index K+5k_max+4
    tiles = (
        _constants(5 * tables.r[1], 5 * tables.s[1]),
        (TILE_BLOCKS, 5 * k_max - 2, lam, (tables.r, tables.s, tables.t)),
    )
    return _check(ic.terms, tiles, big_k + 5 * k_max + 4)


def qc_pattern_check(prefix, mu: int, lam: int, k_max: int | None = None) -> PredictionReport:
    """Check <0;a_1..a_K,mu,5,lam,3> against its quasilinear-start pattern.

    Requires lam > K+5 and lam + mu > K+6.  With o = n - K, k = o // 5 and
    r = o % 5, the term at n should be (5, lam*k+mu, 5, lam, 3)[r] for every
    K+1 <= n <= last = lam + nu, where nu = max(0, ((K+4-lam) mod 5) - 1)
    measures how far past lam the references stay clear of the prefix.
    k_max, if given, caps last at the end of block k_max.  The run is
    compared, exactly, with the pattern through last and no further.
    """
    mu, lam = _term(mu, "mu"), _term(lam, "lam")
    big_k = len(prefix)
    if lam <= big_k + 5:
        raise ValidationError(f"lam must exceed K+5 = {big_k + 5}")
    if lam + mu <= big_k + 6:
        raise ValidationError(f"lam + mu must exceed K+6 = {big_k + 6}")
    k_max = None if k_max is None else _term(k_max, "k_max")
    if k_max is not None and k_max < 1:
        raise ValidationError("k_max must be >= 1 when given")

    nu = max(0, ((big_k + 4 - lam) % 5) - 1)
    last = lam + nu
    if k_max is not None:
        last = min(last, big_k + 5 * k_max + 4)

    ic = InitialCondition((*prefix, mu, 5, lam, 3), zero_extended=True)
    # indices K+1 .. last are the chunk (mu + lam*k, 5, lam, 3, 5), which
    # the condition starts: its 5 at K+5, then k = 1, 2, ... from K+6
    tiles = (_constants(5), (TILE_CHUNK, last - big_k - 5, mu + lam, lam))
    return _check(ic.terms, tiles, last)


def _constants(*values: int) -> tuple:
    """The literal tile of the int64 ``values``: the forms (0, 0, v), read at (0, 0)."""
    zeros = array("q", [0]) * len(values)
    return TILE_LITERAL, len(values), (0, 0), (zeros, zeros, array("q", values))
