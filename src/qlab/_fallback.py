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
each tile taking up where the one before it stopped.  By kind:

* TILE_RANGE: ``a, a + 1, a + 2, ...`` (``b`` unused);
* TILE_LITERAL: the values of the tuple ``a`` (``b`` unused);
* TILE_CHUNK: the period-5 chunk ``(a + b*k, 5, b, 3, 5)``, k = 0, 1, ...;
* TILE_BLOCKS: the blocks ``(lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1))``,
  k = 1, 2, ..., with ``lam = a`` and ``b = (r, s, t)`` the R/S/T tables as
  :class:`qlab.rst.RSTState` holds them, row k of each at index k:
  sequences of ints, of which kmax blocks read rows 0..kmax+1 of r and s and
  rows 0..kmax of t.  The kernel reads only ``array('q')`` tables, from
  their buffers, and declines any other.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import chain

STATUS_ALIVE = 0
STATUS_DIED = 1
STATUS_ENDED = 2
STATUS_OVERFLOW = 3

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

TILE_RANGE = 0
TILE_LITERAL = 1
TILE_CHUNK = 2
TILE_BLOCKS = 3


def q_generate(prefix, zero_extended: bool, max_terms: int, checked: bool = True):
    """Extend ``prefix`` under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)).

    Returns ``(terms, status, at_index)``, ``terms`` an ``array('q')``.
    With ``checked`` the 64-bit arithmetic of the compiled kernel is
    simulated: a term outside the int64 range, whether of the prefix or
    computed, yields STATUS_OVERFLOW at its index, and ``terms`` holds the
    terms before it.  Unchecked, integers grow without bound and overflow
    cannot occur: from the first term outside int64 on, and only then, the
    terms go on as a list of ints.  A prefix of fewer than two terms raises
    ValueError.
    """
    if len(prefix) < 2:
        raise ValueError("prefix needs at least two terms")
    t = array("q")
    try:
        t.extend(prefix)
    except OverflowError:  # t holds the prefix terms before the one outside int64
        if checked:
            return t, STATUS_OVERFLOW, len(t) + 1
        t = list(prefix)
    zero = bool(zero_extended)
    status = STATUS_ALIVE
    at = 0
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
            at = n
            break
        try:
            append(total)
        except OverflowError:  # only the array raises it: total lies outside int64
            if checked:
                status = STATUS_OVERFLOW
                at = n
                break
            t = t.tolist()
            append = t.append
            append(total)
        q1, q2 = total, q1
    return t, status, at


def rst_generate(n_max: int):
    """Tabulate R(0..n), S(0..n) and T(0..n) for n up to ``n_max`` (>= 2),
    row k of each at index k, as three ``array('q')``.

    Row m computes R(m) = R(m - R(m-1)) + S(m-1), then S(m) = S(m - R(m)) +
    S(m - R(m-1)), then T(m) = T(m - R(m)) + T(m - S(m)), reading 0 at
    negative arguments.  Returns ``(r, s, t, which, at)``: ``which`` is None
    and ``at`` 0 while the system lives through n_max; otherwise ``which``
    ("r", "s" or "t") is the first of row ``at`` to need a value not yet
    computed, and the tables stop at row at - 1.

    T grows about as n^1.5 (T(10^7) = 3,276,099,248), so no value reaches
    int64 before about 10^13 rows, far past any table memory can hold.
    """
    if n_max < 2:
        raise ValueError("rst_generate needs n_max >= 2")
    r, s, t = array("q", (0, 1, 2)), array("q", (1, 1, 2)), array("q", (1, 2, 2))
    which = None
    at = 0
    # Every value is a sum of earlier values or of zeros, so none is
    # negative, and a reference at or past row m is one to a value <= 0.
    for m in range(3, n_max + 1):
        i = m - r[-1]
        if i >= m:
            which = "r"
            break
        rv = (r[i] if i >= 0 else 0) + s[-1]
        i1 = m - rv
        if i1 >= m:
            which = "s"
            break
        sv = (s[i1] if i1 >= 0 else 0) + (s[i] if i >= 0 else 0)
        i2 = m - sv
        if i2 >= m:
            which = "t"
            break
        r.append(rv)
        s.append(sv)
        t.append((t[i1] if i1 >= 0 else 0) + (t[i2] if i2 >= 0 else 0))
    if which is not None:
        at = m
    return r, s, t, which, at


def materialise(tiles, max_terms: int):
    """The terms ``tiles`` predict, clipped to max_terms: an ``array('q')``
    while every value fits int64, a list of ints otherwise.

    Each tile is clipped to the budget before it is built: a deep chunk can
    span about 10^10 terms.
    """
    try:
        return _build(tiles, max_terms, partial(array, "q"))
    except OverflowError:  # a value outside int64, or a range past sys.maxsize terms
        return _build(tiles, max_terms, list)


def _build(tiles, max_terms: int, make):
    """materialise's terms in one container that ``make`` builds from an
    iterable of ints."""
    out = make(())
    for kind, length, a, b in tiles:
        length = min(length, max_terms - len(out))
        if length <= 0:
            continue
        if kind == TILE_RANGE:
            terms = range(a, a + length)
            len(terms)  # OverflowError past sys.maxsize terms, before array.extend tries them
            out.extend(terms)
        elif kind == TILE_LITERAL:
            out.extend(a[:length])
        elif kind not in (TILE_CHUNK, TILE_BLOCKS):
            raise ValueError(f"unknown tile kind {kind!r}")
        else:
            # whole five-term periods, trimmed to length below
            start, kmax = len(out), -(-length // 5)
            if kind == TILE_CHUNK:
                out += make((5,)) * (5 * kmax)
                out[start::5] = make(range(a, a + b * kmax, b)) if b else make((a,)) * kmax
                out[start + 2 :: 5] = make((b,)) * kmax
                out[start + 3 :: 5] = make((3,)) * kmax
            else:
                r, s, t = b
                if len(r) < kmax + 2 or len(s) < kmax + 2 or len(t) < kmax + 1:
                    # a slice of a short table would shorten the prediction
                    raise ValueError("the R/S/T tables are too short for the block tile")
                out += make((4,)) * (5 * kmax)
                out[start::5] = make([a * v for v in t[1 : kmax + 1]])
                five_r = make([5 * v for v in r[1 : kmax + 2]])
                out[start + 2 :: 5] = five_r[:-1]
                out[start + 3 :: 5] = five_r[1:]
                out[start + 4 :: 5] = make([5 * v for v in s[2 : kmax + 2]])
            del out[start + length :]
    return out


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
    """Run the recurrence as q_generate does and compare it with the terms
    ``materialise(tiles, max_terms)`` predicts.

    Returns ``(matched_through, first_mismatch, status, at, n_actual)``:
    the count of leading terms that agree, ``_first_difference`` of the two
    lists, q_generate's status and index, and the count of actual terms.
    With ``checked`` the int64 kernel is simulated: when the recurrence
    overflows, or the predicted value first_mismatch would report lies
    outside int64, the result is None, as the kernel declines the call.
    """
    terms, status, at = q_generate(prefix, zero_extended, max_terms, checked)
    if status == STATUS_OVERFLOW:
        return None
    predicted = materialise(tiles, max_terms)
    first = _first_difference(predicted, terms)
    if first is None:
        return len(predicted), None, status, at, len(terms)
    if checked and first[1] is not None and not INT64_MIN <= first[1] <= INT64_MAX:
        return None
    return first[0] - 1, first, status, at, len(terms)
