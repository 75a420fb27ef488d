"""Pure-Python generators: the reference semantics of the compiled kernel.

Every function here runs when the kernel is not built or declines a call
(returns None), and is the one owner of every error: the kernel raises
nothing but MemoryError, or an interrupt that is no Exception.  Checked,
q_generate and q_check simulate the kernel's int64 arithmetic, and q_check
returns None where the kernel declines; unchecked, they go on exactly where
int64 cannot, from the kernel's last exact term or from the start.  Terms
and tables come back as the kernel returns them, one ``array('q')`` each
while the values fit int64: q_generate's terms, rst_generate's three R/S/T
tables, and the terms ``materialise`` says the tiles predict.  Only an
exact run, or a prediction, with a value past int64 is a list of ints.
This module is the one owner of that rule.

A tile is ``(kind, length, a, b)``: ``length`` consecutive predicted terms,
the first tile taking up past the prefix (the initial condition itself, which
no tile restates) and each later one where the one before it stopped.  By kind:

* TILE_LITERAL: ``length`` affine forms, with ``a = (x, y)`` and ``b =
  (c, d, f)`` three tables of at least ``length`` rows: its value at offset
  i is ``c[i]*x + d[i]*y + f[i]``.  The kernel reads only int64 buffer
  tables, such as an ``array('q')`` or a read-only view of one, and stops
  at the first row it cannot compute in int64;
* TILE_CHUNK: the period-5 chunk ``(a + b*k, 5, b, 3, 5)``, k = 0, 1, ...;
* TILE_BLOCKS: the blocks ``(lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1))``,
  k = 1, 2, ..., with ``lam = a`` and ``b = (r, s, t)`` the R/S/T tables as
  :class:`qlab.rst.RSTState` holds them, row k of each at index k:
  sequences of ints, of which kmax blocks read rows 0..kmax+1 of r and s and
  rows 0..kmax of t.  The kernel reads only ``array('q')`` tables, from
  their buffers, and declines any other.

q_check compares the run with the prediction tile by tile, and builds a
tile only as far as the compare reaches (see its docstring), so a tile far
longer than the run costs no more than the run; the kernel compares every
tile, of any kind, five terms at a time, in place.  Every tile is read all
the same, and a parameter that is not an int raises TypeError whether or
not another value lies past int64.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import chain
from operator import index

STATUS_ALIVE = 0
STATUS_DIED = 1
STATUS_ENDED = 2
STATUS_OVERFLOW = 3

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

TILE_LITERAL = 1
TILE_CHUNK = 2
TILE_BLOCKS = 3


def q_generate(prefix, zero_extended: bool, max_terms: int, checked: bool = True):
    """Extend ``prefix`` under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)).

    Returns ``(terms, status)``, ``terms`` an ``array('q')``: a run that
    stops, stops at index ``len(terms) + 1``.  With ``checked`` the 64-bit
    arithmetic of the compiled kernel is simulated: a term outside the int64
    range, whether of the prefix or computed, yields STATUS_OVERFLOW, and
    ``terms`` holds the terms before it.  Unchecked, integers grow without
    bound and overflow cannot occur: from the first term outside int64 on,
    and only then, the terms go on as a list of ints.  A prefix of fewer than two terms raises
    ValueError.
    """
    if len(prefix) < 2:
        raise ValueError("prefix needs at least two terms")
    t = array("q")
    try:
        t.extend(prefix)
    except OverflowError:  # t holds the prefix terms before the one outside int64
        if checked:
            return t, STATUS_OVERFLOW
        t = list(prefix)
    zero = bool(zero_extended)
    status = STATUS_ALIVE
    append = t.append
    q1, q2 = t[-1], t[-2]
    # q1 = Q(n-1) and q2 = Q(n-2), and t holds Q(1..n-1), so Q(n-v) is t[-v]
    # for v in 1..n-1.  A value v <= 0 points at or past n itself, v >= n at
    # a nonpositive index.
    for n in range(len(t) + 1, max_terms + 1):
        if 0 < q1 < n and 0 < q2 < n:
            total = t[-q1] + t[-q2]
        elif zero and q1 > 0 and q2 > 0:
            total = (t[-q1] if q1 < n else 0) + (t[-q2] if q2 < n else 0)
        else:
            status = STATUS_ENDED if zero else STATUS_DIED
            break
        try:
            append(total)
        except OverflowError:  # only the array raises it: total lies outside int64
            if checked:
                status = STATUS_OVERFLOW
                break
            t = t.tolist()
            append = t.append
            append(total)
        q1, q2 = total, q1
    return t, status


def rst_generate(n_max: int):
    """Tabulate R(0..n), S(0..n) and T(0..n) for n up to ``n_max`` (>= 2),
    row k of each at index k, as three ``array('q')``.

    Row m computes R(m) = R(m - R(m-1)) + S(m-1), then S(m) = S(m - R(m)) +
    S(m - R(m-1)), then T(m) = T(m - R(m)) + T(m - S(m)), reading 0 at
    negative arguments.  Returns ``(r, s, t, which)``: ``which`` is None
    while the system lives through n_max; otherwise ``which`` ("r", "s" or
    "t") is the first of row ``len(s)`` to need a value not yet computed,
    and the tables stop at the row before it.

    Each table is allocated once, at n_max + 1 rows (n_max clipped as the
    kernel clips it, so that a table memory cannot hold is a MemoryError at
    once), written row by row, and cut only where the system ends.
    T grows about as n^1.5 (T(10^7) = 3,276,099,248), so no value reaches
    int64 before about 10^13 rows, far past any table memory can hold.
    """
    if n_max < 2:
        raise ValueError("rst_generate needs n_max >= 2")
    rows = min(n_max, sys.maxsize - 1) + 1
    r, s, t = (array("q", [0]) * rows for _ in range(3))
    r[1], r[2] = 1, 2
    s[0], s[1], s[2] = 1, 1, 2
    t[0], t[1], t[2] = 1, 2, 2
    which = None
    # Every value is a sum of earlier values or of zeros, so none is
    # negative, and a reference at or past row m is one to a value <= 0.
    for m in range(3, rows):
        i = m - r[m - 1]
        if i >= m:
            which = "r"
            break
        rv = (r[i] if i >= 0 else 0) + s[m - 1]
        i1 = m - rv
        if i1 >= m:
            which = "s"
            break
        sv = (s[i1] if i1 >= 0 else 0) + (s[i] if i >= 0 else 0)
        i2 = m - sv
        if i2 >= m:
            which = "t"
            break
        r[m] = rv
        s[m] = sv
        t[m] = (t[i1] if i1 >= 0 else 0) + (t[i2] if i2 >= 0 else 0)
    if which is not None:
        del r[m:], s[m:], t[m:]
    return r, s, t, which


def materialise(prefix, tiles, max_terms: int):
    """The terms of ``prefix``, kept whole as q_generate keeps it, then
    those ``tiles`` predict after it, clipped to max_terms: an
    ``array('q')`` while every value fits int64, a list of ints otherwise.

    Each tile is clipped to the budget before it is built: a deep chunk can
    span about 10^10 terms.
    """
    try:
        return _build(prefix, tiles, max_terms, partial(array, "q"))
    except OverflowError:  # a value outside int64, or a prefix past sys.maxsize terms
        return _build(prefix, tiles, max_terms, _ints)


def _ints(values) -> list:
    """A list of the ints ``values``: TypeError for any other value, as
    ``array('q')`` raises it."""
    return list(map(index, values))


def _build(prefix, tiles, max_terms: int, make):
    """materialise's terms in one container that ``make`` builds from an
    iterable of ints."""
    len(prefix)  # OverflowError past sys.maxsize terms, before make tries them
    out = make(prefix)
    for kind, length, a, b in tiles:
        length = min(length, max_terms - len(out))
        if length > 0:
            out += _tile(kind, length, a, b, length, make)
    return out


def _tile(kind, length: int, a, b, stop: int, make, checked: bool = False):
    """The first ``stop`` (at most ``length``) values of the tile ``(kind,
    length, a, b)``, in one container that ``make`` builds from an iterable
    of ints.  With ``checked``, a literal's row that the kernel cannot
    compute in int64 is INT64_MAX + 1, which no int64 term equals.

    Raises ValueError for an unknown kind, for a literal's tables shorter
    than ``length`` rows, and for R/S/T tables shorter than the ``length``
    values of a block tile read; TypeError for a parameter that is not an int.
    """
    if kind == TILE_LITERAL:
        (x, y), (c, d, f) = a, b
        x, y = index(x), index(y)
        if min(len(c), len(d), len(f)) < length:  # binding, as every other tile's length is
            raise ValueError("the literal tile's tables hold fewer rows than its length")
        return make(_literal(x, y, c[:stop], d[:stop], f[:stop], checked))
    if kind not in (TILE_CHUNK, TILE_BLOCKS):
        raise ValueError(f"unknown tile kind {kind!r}")
    # whole five-term periods, trimmed to stop below
    kmax = -(-stop // 5)
    if kind == TILE_CHUNK:
        out = make((5,)) * (5 * kmax)
        out[::5] = make(range(a, a + b * kmax, b)) if b else make((a,)) * kmax
        out[2::5] = make((b,)) * kmax
        out[3::5] = make((3,)) * kmax
    else:
        r, s, t = b
        need = -(-length // 5)
        if len(r) < need + 2 or len(s) < need + 2 or len(t) < need + 1:
            # a slice of a short table would shorten the prediction
            raise ValueError("the R/S/T tables are too short for the block tile")
        out = make((4,)) * (5 * kmax)
        out[::5] = make([a * v for v in t[1 : kmax + 1]])
        five_r = make([5 * v for v in r[1 : kmax + 2]])
        out[2::5] = five_r[:-1]
        out[3::5] = five_r[1:]
        out[4::5] = make([5 * v for v in s[2 : kmax + 2]])
    del out[stop:]
    return out


def _literal(x: int, y: int, c, d, f, checked: bool):
    """The rows ``c*x + d*y + f`` exactly.  With ``checked``, a row the
    kernel cannot compute in int64 is INT64_MAX + 1: a parameter outside
    int64 under a nonzero coefficient, or a product or partial sum outside
    int64, even where the row itself fits."""
    for cc, dd, ff in zip(c, d, f):
        cx, dy = cc * x, dd * y
        if checked and ((cc and not _fits(x)) or (dd and not _fits(y))
                        or not _fits(cx, dy, cx + dy, cx + dy + ff)):
            yield INT64_MAX + 1
        else:
            yield cx + dy + ff


def _fits(*values) -> bool:
    return all(INT64_MIN <= v <= INT64_MAX for v in values)


def format_rows(columns, first, sep: str, per_row: int, lo: int, hi: int) -> str:
    """Rows ``lo..hi-1`` of the int sequences ``columns`` as text.

    Row i holds ``columns[c][i]`` for each column, led by its index
    ``first + i`` unless ``first`` is None, the fields joined by ``sep`` and
    the row ended by "\n".  With ``per_row > 1`` (one column, no index)
    the values go ``per_row`` to a line instead, the last line possibly
    short.  Raises ValueError on a malformed call, and TypeError when a
    value is not an int: the one owner of these errors, as the kernel
    declines every call it cannot write and ``_backend`` then calls this.
    """
    if not sep.isascii():
        raise ValueError("sep must be ASCII")
    if not columns or per_row < 1 or (per_row > 1 and (len(columns) > 1 or first is not None)):
        raise ValueError("format_rows needs a column, and per_row > 1 only for one unindexed column")
    if not all(0 <= lo <= hi <= len(column) for column in columns):
        raise ValueError("rows lo..hi-1 lie outside a column")
    fields = [column[lo:hi] for column in columns]
    for field in fields:
        # "%d" would also format a float; an array('q'), or a view of one,
        # holds only ints
        if type(field) not in (array, memoryview) or memoryview(field).format != "q":
            if not all(issubclass(kind, int) for kind in set(map(type, field))):
                raise TypeError("a column holds only ints")
    if first is not None:
        fields.insert(0, range(first + lo, first + hi))
    values = tuple(fields[0] if len(fields) == 1 else chain.from_iterable(zip(*fields)))
    # one "%d" per value: the fastest way to write many ints from Python
    width = per_row if per_row > 1 else len(fields)
    full, rest = divmod(len(values), width)
    sep = sep.replace("%", "%%")
    template = (sep.join(["%d"] * width) + "\n") * full
    if rest:
        template += sep.join(["%d"] * rest) + "\n"
    return template % values


def _first_difference(p_terms, a_terms) -> tuple[int, int | None, int | None] | None:
    """(index, predicted, actual) at the first disagreement of two sequences
    of ints, None if they hold the same values.

    The index counts from 1.  A stream that stops early shows up as None on
    its side of the tuple.
    """
    if p_terms == a_terms:
        return None
    common = min(len(p_terms), len(a_terms))
    for i in range(common):
        if p_terms[i] != a_terms[i]:
            return (i + 1, p_terms[i], a_terms[i])
    if len(p_terms) > common:
        return (common + 1, p_terms[common], None)
    if len(a_terms) > common:
        return (common + 1, None, a_terms[common])
    return None  # equal values in sequences of different types


def q_check(prefix, zero_extended: bool, tiles, max_terms: int, checked: bool = True):
    """Run the recurrence as q_generate does and compare it, tile by tile,
    with the terms ``materialise(prefix, tiles, max_terms)`` predicts: the
    run holds the prefix itself, so the walk starts just past it.

    Returns ``(first_mismatch, status, n_actual)``: ``_first_difference``
    of the prediction and the run, q_generate's status, and the count of
    actual terms.  With ``checked`` the int64 kernel is simulated: when the
    recurrence overflows, or the predicted value first_mismatch would report
    lies outside int64 (as a literal's row the kernel cannot compute does),
    the result is None, as the kernel declines the call.

    A tile is built only as far as the compare needs it: to one value past
    the end of the run, and past the first difference only its first
    period, which reads each of its parameters.  So a prediction far longer
    than the run is never built, yet every tile is read: an unknown kind,
    a literal's tables shorter than its length, R/S/T tables too short for
    their tile, and a parameter that is not an int are refused as
    materialise refuses them.
    """
    terms, status = q_generate(prefix, zero_extended, max_terms, checked)
    if status == STATUS_OVERFLOW:
        return None
    pos, first = len(prefix), None  # pos: the count of predicted values before the tile
    for kind, length, a, b in tiles:
        length = min(length, max_terms - pos)
        if length <= 0:
            continue
        reach = len(terms) - pos + 1 if first is None else 0
        stop = min(length, max(reach, 5))
        try:
            values = _tile(kind, length, a, b, stop, partial(array, "q"), checked)
        except OverflowError:  # a value outside int64
            values = _tile(kind, length, a, b, stop, _ints, checked)
        if first is None:
            first = _first_difference(values, terms[pos : pos + len(values)])
            if first is not None:
                first = (pos + first[0], *first[1:])
        pos += length
    if first is None and pos < len(terms):
        first = (pos + 1, None, terms[pos])
    if checked and first and first[1] is not None and not INT64_MIN <= first[1] <= INT64_MAX:
        return None
    return first, status, len(terms)
