"""R/S/T system tests: the three mutually-referencing tables, both of their
backends, the cached accessors, the `qlab rst` writer, and the two
interleaving-pattern checkers built on them."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from array import array
from itertools import count
from types import SimpleNamespace
from unittest import mock

import pytest

from qlab import (
    InitialCondition,
    PredictionReport,
    QlabError,
    SequenceStatus,
    ValidationError,
    _backend,
    _fallback,
    evaluate,
    qc_pattern_check,
    qt_pattern_check,
    rst,
    rst_compute,
)
from qlab._fallback import INT64_MAX, INT64_MIN, TILE_BLOCKS, TILE_LITERAL
from qlab.cli import main
from qlab.rst import R, RSTState, RSTStatus, S, T


def test_small_tables():
    # hand-unrolled: R uses S(n-1), S uses R(n) of the same row, T uses both
    state = rst_compute(4)
    assert state.r.tolist() == [0, 1, 2, 3, 3]
    assert state.s.tolist() == [1, 1, 2, 2, 2]
    assert state.t.tolist() == [1, 2, 2, 3, 4]
    assert state.status.is_alive
    assert state.n == 4
    print("✓ R/S/T rows 0..4 match hand computation")


def test_out_of_range_reads_are_zero():
    state = rst_compute(4)
    assert state.R(0) == 0 and state.R(-3) == 0
    assert state.S(-1) == 0
    assert state.T(-1) == 0
    assert S(-2) == 0 and T(-5) == 0 and R(0) == 0


def test_cached_accessors_match_bulk_compute():
    state = rst_compute(300)
    assert state.status.is_alive
    for i in range(1, 301):
        assert R(i) == state.R(i)
        assert S(i) == state.S(i)
        assert T(i) == state.T(i)


def test_rst_compute_validation():
    with pytest.raises(ValidationError):
        rst_compute(1)


def _as_lists(tables):
    """rst_generate's result with each table, an array('q') from either
    kernel, turned into its list."""
    for table in tables[:3]:
        assert type(table) is array and table.typecode == "q"
    return [table.tolist() for table in tables[:3]] + list(tables[3:])


def test_compiled_and_fallback_rst_agree(compiled_kernel):
    for n_max in [*range(2, 301), 10**4, 10**5 + 3]:
        with mock.patch.object(_backend, "_kernel", compiled_kernel):
            compiled = _backend.rst_generate(n_max)
        assert _as_lists(compiled) == _as_lists(_fallback.rst_generate(n_max)), n_max
    # the kernel declines n_max < 2, and the backend raises the reference's error
    assert compiled_kernel.rst_generate(1) is None
    for generate in (_backend.rst_generate, _fallback.rst_generate):
        with mock.patch.object(_backend, "_kernel", compiled_kernel), \
                pytest.raises(ValueError, match="n_max >= 2"):
            generate(1)


@pytest.mark.parametrize("length", [1, 3, 4, 5, 6, 98, 500])
@pytest.mark.parametrize("lam", [7, 12])
def test_block_tile_reads_exactly_its_rows(compiled_kernel, lam, length):
    # block k is (lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1)): kmax blocks read
    # rows 0..kmax+1 of r and s and rows 0..kmax of t, and no row past them
    kmax = -(-length // 5)
    state = rst_compute(kmax + 1)
    r, s, t = state.r, state.s, state.t[: kmax + 1]
    ic = (5, lam, 4, 6)

    def tiles(tables):
        return ((TILE_LITERAL, 4, ic, None), (TILE_LITERAL, 2, (5, 5), None),
                (TILE_BLOCKS, length, lam, tables))

    budget = 6 + length
    want = _fallback.q_check(ic, True, tiles((r, s, t)), budget)
    assert compiled_kernel.q_check(ic, True, tiles((r, s, t)), budget) == want
    # a table one row short is declined before it is read: neither UBSan nor
    # PYTHONMALLOC=debug would catch that read past its end, and only the
    # AddressSanitizer build of the CI asan job does.  The backend then
    # raises the reference's error, with the kernel and without it.
    for short in ((r[:-1], s, t), (r, s[:-1], t), (r, s, t[:-1])):
        assert compiled_kernel.q_check(ic, True, tiles(short), budget) is None
        for kernel in (compiled_kernel, None):
            with mock.patch.object(_backend, "_kernel", kernel), \
                    pytest.raises(ValueError, match="too short"):
                _backend.q_check(ic, True, tiles(short), budget)


def test_rst_overflow_falls_back_to_python():
    overflowing = SimpleNamespace(rst_generate=lambda n_max: None)
    with mock.patch.object(_backend, "_kernel", overflowing):
        assert _as_lists(_backend.rst_generate(500)) == _as_lists(_fallback.rst_generate(500))


def test_cache_regrows_by_doubling(monkeypatch):
    monkeypatch.setattr(rst, "_TABLES", RSTState((0,), (1,), (1,), RSTStatus.alive()))
    sizes = []
    compute = rst.rst_compute
    monkeypatch.setattr(rst, "rst_compute", lambda n: sizes.append(n) or compute(n))
    state = compute(1000)
    for i in range(1, 1001):
        assert (R(i), S(i), T(i)) == (state.R(i), state.S(i), state.T(i))
    assert sizes == [2**e for e in range(1, 11)]


def test_cache_reports_where_the_system_ended(monkeypatch):
    ended = SimpleNamespace(
        rst_generate=lambda n_max: ((0, 1, 2, 3), (1, 1, 2, 2), (1, 2, 2, 3), "t", 4))
    monkeypatch.setattr(rst, "_TABLES", RSTState((0,), (1,), (1,), RSTStatus.alive()))
    monkeypatch.setattr(_backend, "_kernel", ended)
    assert R(3) == 3
    with pytest.raises(QlabError, match=r"ended \(t at 4\)"):
        T(4)


def _per_cell_rst(state, which: str, fmt: str) -> str:
    """What `qlab rst` wrote before its block writer, one cell at a time:
    the reference for its output."""
    out = io.StringIO()
    ended = None
    if not state.status.is_alive:
        ended = f"# ended ({state.status.which}) at {state.status.at_index}"
    if fmt == "bfile":
        if which == "all":
            raise ValidationError("--format bfile needs --which r, s or t")
        table = getattr(state, which.upper())
        for i in range(1 if which == "r" else 0, state.n + 1):
            out.write(f"{i} {table(i)}\n")
        if ended:
            out.write(ended + "\n")
    elif fmt == "json":
        payload: dict = {"n_max": state.n}
        if which in ("r", "all"):
            payload["r"] = [state.R(i) for i in range(1, state.n + 1)]
        if which in ("s", "all"):
            payload["s"] = list(state.s)
        if which in ("t", "all"):
            payload["t"] = list(state.t)
        if state.status.is_alive:
            payload["status"] = "alive"
        else:
            payload["status"] = {
                "which": state.status.which,
                "at_index": state.status.at_index,
            }
        json.dump(payload, out)
        out.write("\n")
    else:
        cols = ["r", "s", "t"] if which == "all" else [which]
        sep = "," if fmt == "csv" else "\t"
        out.write(sep.join(["n"] + cols) + "\n")
        for i in range(state.n + 1):
            cells = [str(getattr(state, c.upper())(i)) for c in cols]
            out.write(sep.join([str(i)] + cells) + "\n")
        if ended:
            out.write(ended + "\n")
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _state(n_max: int, ended: bool) -> RSTState:
    """rst_compute(n_max), or its rows 0..n_max-1 as if row n_max had
    ended the system."""
    state = rst_compute(n_max)
    if not ended:
        return state
    n = n_max - 1
    return RSTState(state.r[: n + 1], state.s[: n + 1], state.t[: n + 1],
                    RSTStatus.ended("s", n_max))


# block edges of the 4096-row writer, and rows 0..n_max that end mid-block
@pytest.mark.parametrize("n_max", [2, 3, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("fmt", ["text", "csv", "json", "bfile"])
@pytest.mark.parametrize("which", ["r", "s", "t", "all"])
@pytest.mark.parametrize("ended", [False, True])
@pytest.mark.usefixtures("fastest_backend")
def test_rst_output_matches_per_cell_writer(capsys, n_max, fmt, which, ended):
    state = _state(n_max, ended)
    try:
        expected = (0, _per_cell_rst(state, which, fmt), "")
    except ValidationError as exc:
        expected = (1, "", f"qlab: error: {exc}\n")
    # an ended state cannot be computed, so it is handed to the CLI
    patched = mock.patch("qlab.rst.rst_compute", return_value=state)
    with patched if ended else contextlib.nullcontext():
        code = main(["rst", "--max", str(n_max), "--format", fmt, "--which", which])
    captured = capsys.readouterr()
    assert (code, captured.err) == (expected[0], expected[2])
    got, want = captured.out, expected[1]
    if got != want:  # name the first differing byte, not a diff of 20001 rows
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                  min(len(got), len(want)))
        pytest.fail(f"differs at {at}: {got[max(at - 20, 0) : at + 20]!r}"
                    f" != {want[max(at - 20, 0) : at + 20]!r}")


def _independent_rst(n_max: int) -> tuple[list[int], list[int], list[int]]:
    """R(0..n_max), S(0..n_max) and T(0..n_max) from a direct memoized
    transcription of the three rules, sharing no code with qlab."""
    @functools.lru_cache(maxsize=None)
    def rr(n: int) -> int:
        if n <= 0:
            return 0
        if n <= 2:
            return n
        return rr(n - rr(n - 1)) + ss(n - 1)

    @functools.lru_cache(maxsize=None)
    def ss(n: int) -> int:
        if n < 0:
            return 0
        if n <= 1:
            return 1
        return ss(n - rr(n)) + ss(n - rr(n - 1))

    @functools.lru_cache(maxsize=None)
    def tt(n: int) -> int:
        if n < 0:
            return 0
        if n == 0:
            return 1
        return tt(n - rr(n)) + tt(n - ss(n))

    # ascending rows keep the recursion shallow
    rows = [(rr(i), ss(i), tt(i)) for i in range(n_max + 1)]
    return tuple(list(column) for column in zip(*rows))


def test_rst_usage_error_comes_before_the_tables(capsys):
    with mock.patch("qlab.rst.rst_compute", side_effect=lambda n: pytest.fail("tables computed")):
        code = main(["rst", "--max", "20000000", "--format", "bfile"])
    assert (code, *capsys.readouterr()) == (
        1, "", "qlab: error: --format bfile needs --which r, s or t\n")


def test_tables_match_independent_recursion():
    rr, ss, tt = _independent_rst(200)
    state = rst_compute(200)
    assert all(state.R(i) == rr[i] for i in range(1, 201))
    assert all(state.S(i) == ss[i] for i in range(201))
    assert all(state.T(i) == tt[i] for i in range(201))
    print("✓ R/S/T through 200 match an independent recursion")


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_row_k_of_every_table_is_at_index_k(request, backend):
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        state = rst_compute(200)
    assert len(state.r) == len(state.s) == len(state.t) == 201
    assert (state.r.tolist(), state.s.tolist(), state.t.tolist()) == _independent_rst(200)


def test_t_starts_slow():
    # T lags n early (T(10)=6) and only overtakes around 60 (T(60)=73);
    # that dip is what lets the qt side condition lam*T(k) >= K+5k+4 fail
    # at small k for short lam
    state = rst_compute(60)
    assert state.T(10) == 6
    assert state.T(60) == 73


def test_qt_first_block_values():
    # block 1 of <0;5,9,4,7>: (5R(1), 5S(1), 9T(1), 4, 5R(1)) = 5,5,18,4,5
    seq = evaluate(InitialCondition((5, 9, 4, 7), zero_extended=True), 9)
    assert [seq.term(i) for i in range(5, 10)] == [5, 5, 18, 4, 5]
    report = qt_pattern_check((), 9, 7, 1)
    assert report.first_mismatch is None
    assert report.matched_through == 9
    assert report.terminal_agreement
    print("✓ qt block 1 equals (5,5,18,4,5)")


def test_qt_holds_for_sixty_blocks():
    report = qt_pattern_check((), 9, 7, 60)
    assert report.first_mismatch is None
    assert report.matched_through == 304
    assert report.actual_status == report.predicted_status == SequenceStatus.alive()
    assert report.terminal_agreement
    # and every block meets the side condition
    assert all(9 * T(k) >= 5 * k + 4 for k in range(1, 61))


def test_qt_with_nonempty_prefix():
    # lam=9 is too short for K=3: 9*T(10) = 54 < 3+50+4, and the pattern
    # really breaks in block 10 at the "4" slot (index 3+5*10+3 = 56)
    assert next(k for k in count(1) if 9 * T(k) < 3 + 5 * k + 4) == 10
    report = qt_pattern_check((2, 2, 2), 9, 9, 40)
    assert report.first_mismatch == (56, 4, 6)
    assert report.matched_through == 55
    assert (report.matched_through - 3 - 4) // 5 == 9  # blocks 1..9 held
    # a longer lam clears the side condition for every k <= 40
    assert all(15 * T(k) >= 3 + 5 * k + 4 for k in range(1, 41))
    report = qt_pattern_check((2, 2, 2), 15, 9, 40)
    assert report.first_mismatch is None
    assert report.matched_through == 3 + 5 * 40 + 4
    print("✓ qt prefix (2,2,2): lam=9 truncates in block 10, lam=15 holds")


def test_qt_guarantee_for_empty_prefix(fastest_backend):
    # K = 0: lam >= 9 and mu >= 6 suffice
    failures = [
        (lam, mu, report.first_mismatch)
        for lam in range(9, 41)
        for mu in range(6, 41)
        if (report := qt_pattern_check((), lam, mu, 150)).first_mismatch is not None
    ]
    assert failures == []


def test_qt_guarantee_under_side_condition(fastest_backend):
    # K >= 1: lam >= 9, mu >= K+6 and lam*T(k) >= K+5k+4 for every k <= k_max
    rng = random.Random(20261020)
    met = 0
    for _ in range(3000):
        big_k = rng.randint(1, 8)
        prefix = tuple(rng.randint(1, 12) for _ in range(big_k))
        mu = rng.randint(big_k + 6, big_k + 40)
        lam = rng.randint(9, 40)
        k_max = rng.randint(1, 120)
        if any(lam * T(k) < big_k + 5 * k + 4 for k in range(1, k_max + 1)):
            continue
        met += 1
        report = qt_pattern_check(prefix, lam, mu, k_max)
        assert report.first_mismatch is None, (prefix, lam, mu, k_max, report.first_mismatch)
        assert report.matched_through == big_k + 5 * k_max + 4
    assert met > 2500  # the side condition leaves most draws in


def test_qt_lambda_8_breaks_quickly():
    report = qt_pattern_check((), 8, 7, 12)
    index, want, got = report.first_mismatch
    assert index <= 60
    assert (index, want, got) == (53, 4, 9)
    assert report.matched_through == 52
    assert (report.matched_through - 4) // 5 == 9  # blocks 1..9 held
    print(f"✓ lam=8 first violation at index {index} (want {want}, got {got})")


def test_qt_validation():
    with pytest.raises(ValidationError):
        qt_pattern_check((), 9, 7, 0)
    # a fractional lam is refused with the condition, before any tile holds it
    with pytest.raises(ValidationError, match="term 9.5 is not an integer"):
        qt_pattern_check((), 9.5, 7, 2)


def test_qc_long_prefix_sizes():
    report = qc_pattern_check(tuple(range(1, 41)), 60, 100)
    assert report.first_mismatch is None
    assert report.matched_through == 103  # lam + nu with nu = 3
    assert (report.matched_through - 4 - 40) // 5 == 11  # complete blocks
    assert report.terminal_agreement
    print("✓ qc K=40, lam=100, mu=60 holds through 103")


def test_qc_pattern_values_match_engine():
    # the pattern holds through lam + nu = 103, and the run leaves it at 104
    def pattern(n):
        k, r = divmod(n - 40, 5)
        return (5, 100 * k + 60, 5, 100, 3)[r]

    prefix = tuple(range(1, 41))
    seq = evaluate(InitialCondition((*prefix, 60, 5, 100, 3), zero_extended=True), 104)
    for n in range(41, 104):
        assert seq.term(n) == pattern(n)
    assert len(seq) == 104 and seq.term(104) != pattern(104)


def test_qc_arbitrary_prefix_values():
    # the guaranteed range never references into the prefix, so junk is fine
    report = qc_pattern_check((-7, 0, 900, 3), 30, 40)
    assert report.first_mismatch is None
    assert report.matched_through == 42  # lam + nu with nu = 2


def test_qc_k_max_caps_the_range():
    report = qc_pattern_check(tuple(range(1, 41)), 60, 100, k_max=2)
    assert report.first_mismatch is None
    assert report.matched_through == 54
    assert (report.matched_through - 4 - 40) // 5 == 2  # complete blocks
    assert report.terminal_agreement


def test_qc_preconditions():
    with pytest.raises(ValidationError):
        qc_pattern_check((), 10, 5)  # lam <= K+5
    with pytest.raises(ValidationError):
        qc_pattern_check(tuple(range(1, 11)), -10, 16)  # lam+mu <= K+6
    with pytest.raises(ValidationError):
        qc_pattern_check((), 10, 7, k_max=0)


@pytest.mark.parametrize("check, args", [
    (qt_pattern_check, ((), 9, 7)),
    (qc_pattern_check, ((), 60, 100)),
], ids=["qt", "qc"])
@pytest.mark.parametrize("k_max", [2.5, "3", 2.0, True])
def test_pattern_checks_refuse_a_k_max_that_is_no_integer(check, args, k_max):
    # read through __index__, as an initial-condition term is: never truncated
    with pytest.raises(ValidationError, match="k_max"):
        check(*args, k_max)


def test_qc_boundary_pair_reported_honestly():
    # lam+mu = K+7 passes the declared preconditions, but the mod-3 slot of
    # block 1 then reads index K+8-(lam+mu) = 1 instead of falling off the
    # left edge: Q(8) = Q(3)+Q(1) = 6+1 = 7, not lam = 6 (hand-checked)
    report = qc_pattern_check((), 1, 6)
    assert report.first_mismatch == (8, 6, 7)
    assert report.matched_through == 7
    print("✓ qc boundary pair (mu=1, lam=6) breaks at index 8 as computed")


def test_qc_minimal_passing_pair():
    # lam+mu = K+8 is the least sum whose block-1 references all clear the
    # left edge; the pattern then holds through lam+nu exactly
    report = qc_pattern_check((), 2, 6)
    assert report.first_mismatch is None
    assert report.matched_through == 6 + max(0, ((4 - 6) % 5) - 1)


def _qt_per_index(prefix, lam, mu, k_max):
    """qt_pattern_check as it was before the shared block template, with its
    outcome as a PredictionReport: one seq.term(idx) and one R(k)/S(k)/T(k)
    read per cell.  The reference for the differential test."""
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    big_k = len(prefix)
    ic = InitialCondition((*prefix, 5, lam, 4, mu), zero_extended=True)
    last = big_k + 5 * k_max + 4
    seq = evaluate(ic, last, mode="exact")
    total = len(seq)

    matched = last
    first_mismatch = None
    for k in range(1, k_max + 1):
        base = big_k + 5 * k
        expected = (5 * R(k), 5 * S(k), lam * T(k), 4, 5 * R(k))
        for off, want in enumerate(expected):
            idx = base + off
            got = seq.term(idx) if idx <= total else None
            if got != want:
                first_mismatch = (idx, want, got)
                matched = idx - 1
                break
        if first_mismatch:
            break

    alive = SequenceStatus.alive()
    return PredictionReport(matched, first_mismatch, alive, seq.status,
                            seq.status == alive and total == last)


def _qc_per_index(prefix, mu, lam, k_max=None):
    """qc_pattern_check as it was before the shared period-5 chunk, with its
    outcome as a PredictionReport: one seq.term(n) read per index.  The
    reference for the differential test."""
    big_k = len(prefix)
    if lam <= big_k + 5:
        raise ValidationError(f"lam must exceed K+5 = {big_k + 5}")
    if lam + mu <= big_k + 6:
        raise ValidationError(f"lam + mu must exceed K+6 = {big_k + 6}")
    if k_max is not None and k_max < 1:
        raise ValidationError("k_max must be >= 1 when given")

    nu = max(0, ((big_k + 4 - lam) % 5) - 1)
    last = lam + nu
    if k_max is not None:
        last = min(last, big_k + 5 * k_max + 4)

    def pattern(n: int) -> int:
        k, r = divmod(n - big_k, 5)
        return (5, lam * k + mu, 5, lam, 3)[r]

    ic = InitialCondition((*prefix, mu, 5, lam, 3), zero_extended=True)
    seq = evaluate(ic, last, mode="exact")
    total = len(seq)

    matched = last
    first_mismatch = None
    for n in range(big_k + 1, last + 1):
        want = pattern(n)
        got = seq.term(n) if n <= total else None
        if got != want:
            first_mismatch = (n, want, got)
            matched = n - 1
            break

    alive = SequenceStatus.alive()
    return PredictionReport(matched, first_mismatch, alive, seq.status,
                            seq.status == alive and total == last)


def _report_or_error(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except QlabError as exc:
        return type(exc), str(exc)


def _random_prefix(rng: random.Random) -> tuple[int, ...]:
    # small and non-positive values make runs end or leave the pattern;
    # a term past 2^63 makes the compiled kernel report an overflow in the
    # prefix
    values = [rng.randint(-5, 40) for _ in range(rng.randint(0, 10))]
    if values and rng.random() < 0.05:
        values[rng.randrange(len(values))] = 2**63
    return tuple(values)


class _ExactWays:
    """The compiled kernel, noting each way its q_check leaves a case to the
    exact reference: it declines a prefix term outside int64, or a later
    term or predicted value outside it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.ways = set()

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def q_check(self, prefix, *args):
        check = self.kernel.q_check(prefix, *args)
        if check is None:
            fits = all(INT64_MIN <= v <= INT64_MAX for v in prefix)
            self.ways.add("overflow" if fits else "prefix")
        return check


def _outcomes(report):
    return {
        "violation" if report.first_mismatch else "ok",
        "alive" if report.actual_status.is_alive else "ended",
    }


def _sweep(kernel, check, reference, cases):
    """Assert check == reference on every case, on the Python backend and
    through the kernel; returns the outcomes seen (ok or violation, alive or
    ended, or the error raised), and the ways the kernel's cases reached the
    exact reference."""
    recorder = _ExactWays(kernel)
    seen = set()
    for backend in (recorder, None):
        with mock.patch.object(_backend, "_kernel", backend):
            for case in cases:
                got = _report_or_error(check, *case)
                assert got == _report_or_error(reference, *case), case
                seen |= _outcomes(got) if isinstance(got, PredictionReport) else {got[0].__name__}
    return seen, recorder.ways


def test_qt_check_matches_per_index_reference(compiled_kernel):
    rng = random.Random(20261018)
    cases = [((), 9, 6, 20_000), ((), 8, 6, 12)]
    for _ in range(1500):
        prefix = _random_prefix(rng)
        # the largest lam take lam*T(k) out of int64
        lam = rng.choice((rng.randint(-3, 16), rng.randint(9, 80), rng.randint(2**61, 2**63 - 1)))
        mu = rng.randint(-5, len(prefix) + 12)
        k_max = rng.choice((rng.randint(-1, 3), rng.randint(1, 80)))
        cases.append((prefix, lam, mu, k_max))

    seen, ways = _sweep(compiled_kernel, qt_pattern_check, _qt_per_index, cases)
    # every kind of outcome was exercised, and both ways to the exact reference
    assert seen >= {"ok", "violation", "ended", "alive", "ValidationError"}
    assert ways == {"prefix", "overflow"}


def test_qc_check_matches_per_index_reference(compiled_kernel):
    rng = random.Random(20261019)
    cases = [((), 1, 6, None), (tuple(range(1, 41)), 60, 100, 2)]
    for _ in range(1500):
        prefix = _random_prefix(rng)
        big_k = len(prefix)
        if rng.random() < 0.2:
            # lam*k + mu leaves int64, k_max keeps the run short, and the
            # boundary pair lam + mu = K+7 breaks the pattern early
            lam = rng.randint(2**61, 2**63 - 1)
            mu = rng.choice((rng.randint(-40, 40), big_k + 7 - lam))
            cases.append((prefix, mu, lam, rng.randint(1, 12)))
            continue
        lam = big_k + rng.randint(4, 45)
        mu = rng.randint(big_k + 5 - lam, 40)
        k_max = rng.choice((None, None, rng.randint(-1, 12)))
        cases.append((prefix, mu, lam, k_max))

    seen, ways = _sweep(compiled_kernel, qc_pattern_check, _qc_per_index, cases)
    assert seen >= {"ok", "violation", "ended", "alive", "ValidationError"}
    assert ways == {"prefix", "overflow"}
