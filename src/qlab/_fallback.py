"""Pure-Python generators: the reference semantics of the compiled kernel.

q_generate is used for exact mode, and for fast64 when the kernel is not
built; both return the terms as one list of ints.  rst_generate tabulates
the R/S/T system when the kernel is not built or its int64 values would
overflow.
"""

from __future__ import annotations

STATUS_ALIVE = 0
STATUS_DIED = 1
STATUS_ENDED = 2
STATUS_OVERFLOW = 3

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def q_generate(
    prefix, zero_extended: bool, max_terms: int, checked: bool = True
) -> tuple[list[int], int, int]:
    """Extend ``prefix`` under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)).

    Returns ``(terms, status, at_index)``.  With ``checked`` the 64-bit
    arithmetic of the compiled kernel is simulated and a term outside the
    int64 range yields STATUS_OVERFLOW; unchecked, integers grow without
    bound and overflow cannot occur.
    """
    t = list(prefix)
    zero = bool(zero_extended)
    status = STATUS_ALIVE
    at = 0
    for n in range(len(t) + 1, max_terms + 1):
        total = 0
        # A stored value v is referenced as index n - v: v <= 0 points at or
        # past n itself, v >= n points at a nonpositive index.
        for v in (t[n - 2], t[n - 3]):
            if v <= 0:
                status = STATUS_ENDED if zero else STATUS_DIED
                at = n
                break
            if v >= n:
                if not zero:
                    status = STATUS_DIED
                    at = n
                    break
            else:
                total += t[n - 1 - v]
        else:
            if checked and not INT64_MIN <= total <= INT64_MAX:
                status = STATUS_OVERFLOW
                at = n
                break
            t.append(total)
            continue
        break
    return t, status, at


def rst_generate(
    n_max: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], str | None, int]:
    """Tabulate R(1..n), S(0..n) and T(0..n) for n up to ``n_max`` (>= 2).

    Row m computes R(m) = R(m - R(m-1)) + S(m-1), then S(m) = S(m - R(m)) +
    S(m - R(m-1)), then T(m) = T(m - R(m)) + T(m - S(m)), reading 0 at
    negative arguments.  Returns ``(r, s, t, which, at)``: ``which`` is None
    and ``at`` 0 while the system lives through n_max; otherwise ``which``
    ("r", "s" or "t") is the first of row ``at`` to need a value not yet
    computed, and the tables stop at row at - 1.
    """
    if n_max < 2:
        raise ValueError("rst_generate needs n_max >= 2")
    r, s, t = [0, 1, 2], [1, 1, 2], [1, 2, 2]
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
    del r[0]
    return tuple(r), tuple(s), tuple(t), which, at
