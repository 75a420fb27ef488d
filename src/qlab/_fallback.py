"""Pure-Python term generator: the reference semantics of the compiled kernel.

Used for exact mode, and for fast64 when the kernel is not built.  Both
return the terms as one list of ints.
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
