"""Output checks, run outside the timed region.

Each checker returns None for a correct output and a one-line reason
otherwise.  The references here are written independently of qlab.
"""

from __future__ import annotations

import json
import random
import re

import numpy as np

from workloads import descent

# OEIS A005185, the Hofstadter Q-sequence <1,1>.
A005185 = (1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 6, 8, 8, 8, 10, 9, 10, 11, 11, 12,
           12, 12, 12, 16, 14, 14, 16, 16, 16, 16, 20, 17, 17, 20, 21, 19)

SCAN_SAMPLE = 4  # rows per scan output whose length is recomputed


def q_reference(prefix, zero_extended: bool, max_terms: int) -> tuple[list[int], int | None]:
    """Run Q from ``prefix``; return (terms, index it stopped at or None)."""
    q = [0, *prefix]  # q[i] is Q(i); q[0] is never read
    while len(q) <= max_terms:
        n = len(q)
        total = 0
        for v in (q[n - 1], q[n - 2]):
            if v <= 0 or (v >= n and not zero_extended):
                return q[1:], n
            if v < n:
                total += q[n - v]
        q.append(total)
    return q[1:], None


def check_recurrence(terms: np.ndarray, k: int, zero_extended: bool) -> str | None:
    """Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)) at every n > k, vectorised."""
    q = np.concatenate(([0], np.asarray(terms, dtype=np.int64)))
    n = np.arange(k + 1, len(q))
    refs = [n - q[n - 1], n - q[n - 2]]
    total = np.zeros(len(n), dtype=np.int64)
    for idx in refs:
        if np.any(idx >= n) or (not zero_extended and np.any(idx < 1)):
            return "a term refers outside the range its convention allows"
        total += np.where(idx >= 1, q[np.clip(idx, 0, None)], 0)
    bad = np.nonzero(q[n] != total)[0]
    if len(bad):
        return f"recurrence fails at index {int(n[bad[0]])}"
    return None


_TEXT_HEADER = re.compile(r"# <(.*)>: (\d+) terms, (.+)")


def read_gen(path: str, fmt: str) -> tuple[str | None, np.ndarray, str]:
    """(ic text or None, terms, status) from a `qlab gen` output file."""
    with open(path, encoding="utf-8") as fh:
        data = fh.read()
    if fmt == "json":
        payload = json.loads(data)
        return payload["ic"], np.array(payload["terms"], dtype=np.int64), payload["status"]
    lines = data.splitlines()
    if fmt == "text":
        m = _TEXT_HEADER.fullmatch(lines[0])
        if m is None:
            raise ValueError(f"bad header {lines[0]!r}")
        terms = np.array(" ".join(lines[1:]).split(), dtype=np.int64)
        if int(m.group(2)) != len(terms):
            raise ValueError(f"header says {m.group(2)} terms, body has {len(terms)}")
        return m.group(1), terms, m.group(3)
    status = "alive"
    if lines and lines[-1].startswith("#"):
        status = lines.pop()[2:]
    if fmt == "csv":
        if lines[0] != "n,value":
            raise ValueError(f"bad header {lines[0]!r}")
        lines = lines[1:]
    flat = ",".join(lines).split(",") if fmt == "csv" else " ".join(lines).split()
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(pairs[:, 0], np.arange(1, len(pairs) + 1)):
        raise ValueError("indices are not 1, 2, 3, ...")
    return None, pairs[:, 1], status


def check_output(op, path: str, rng: random.Random) -> str | None:
    """Check the output file of a qlab command line; unreadable output fails."""
    try:
        if op.argv[0] == "gen":
            return check_gen(op, path)
        if op.argv[0] == "scan":
            return check_scan(op, path, rng)
        return check_rst(op, path)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc}"


def check_gen(op, path: str) -> str | None:
    ic, terms, status = read_gen(path, op.ext)
    want_ic = op.argv[op.argv.index("--ic") + 1]
    if ic is not None and ic != want_ic:
        return f"ic reads {ic!r}, expected {want_ic!r}"
    if status != "alive":
        return f"status {status!r}, expected alive"
    if len(terms) != op.items:
        return f"{len(terms)} terms, expected {op.items}"
    k = len(op.prefix)
    if tuple(terms[:k].tolist()) != op.prefix:
        return "output does not start with the initial condition"
    if op.prefix == (1, 1) and tuple(terms[: len(A005185)].tolist()) != A005185:
        return "<1,1> does not begin like A005185"
    return check_recurrence(terms, k, op.zero_extended)


def check_scan(op, path: str, rng: random.Random) -> str | None:
    start, stop = int(op.argv[2]), int(op.argv[4])
    max_terms = int(op.argv[6])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["n,j,classification,length"] or len(lines) != stop - start + 2:
        return "wrong header or row count"
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 4 for row in rows):
        return "a row does not have four fields"
    for n, row in zip(range(start, stop + 1), rows):
        j, cls = descent(n)
        want = [str(n), "" if j is None else str(j), "" if cls is None else str(cls)]
        if row[:3] != want:
            return f"row {row} disagrees with the reference descent {want}"
    for n, row in rng.sample(list(zip(range(start, stop + 1), rows)), SCAN_SAMPLE):
        terms, stopped = q_reference(range(1, n + 1), True, max_terms)
        want = "alive" if stopped is None else str(len(terms))
        if row[3] != want:
            return f"N={n}: length {row[3]}, reference recurrence gives {want}"
    return None


def check_rst(op, path: str) -> str | None:
    n_max = int(op.argv[2])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["n,r,s,t"] or len(lines) != n_max + 2:
        return "wrong header or row count (a trailer means the system ended)"
    table = np.array(",".join(lines[1:]).split(","), dtype=np.int64).reshape(-1, 4)
    n, r, s, t = table.T
    if not np.array_equal(n, np.arange(n_max + 1)):
        return "row indices are not 0..n_max"
    if (r[0], r[1], r[2], s[0], s[1], t[0]) != (0, 1, 2, 1, 1, 1):
        return "initial values differ from R(0..2)=0,1,2 S(0..1)=1,1 T(0)=1"

    def ref(col, idx, k, lowest):
        """col[idx] for every idx < k, reading 0 below ``lowest``."""
        if np.any(idx >= k):
            raise IndexError
        return np.where(idx >= lowest, col[np.clip(idx, 0, None)], 0)

    try:
        k = np.arange(3, n_max + 1)
        if not np.array_equal(r[k], ref(r, k - r[k - 1], k, 1) + s[k - 1]):
            return "R(n) = R(n - R(n-1)) + S(n-1) fails"
        k = np.arange(2, n_max + 1)
        if not np.array_equal(s[k], ref(s, k - r[k], k, 0) + ref(s, k - r[k - 1], k, 0)):
            return "S(n) = S(n - R(n)) + S(n - R(n-1)) fails"
        k = np.arange(1, n_max + 1)
        if not np.array_equal(t[k], ref(t, k - r[k], k, 0) + ref(t, k - s[k], k, 0)):
            return "T(n) = T(n - R(n)) + T(n - S(n)) fails"
    except IndexError:
        return "a row refers to a later row"
    return None


def check_verify(report) -> str | None:
    if report.first_mismatch is not None:
        return f"prediction mismatch at {report.first_mismatch}"
    if not report.terminal_agreement:
        return (f"terminal disagreement: predicted {report.predicted_status},"
                f" actual {report.actual_status}")
    return None
